//! `serve_skew_drift`: one serving trace, end to end.
//!
//! One unit is three whole `xmoe_serve::serve` runs, one per traffic stream
//! of the seed: the Small model on 32 simulated ranks, open-loop Poisson
//! arrivals at 400 req/s *in simulated time* (latency is counted from
//! arrival, so a stall delays every later request), topic skew 8 over bands
//! of 8 experts, a topic drift mid-trace and optimized placement. It
//! exercises the scheduler, the KV ledger, placement re-solves and the pooled
//! forward at serving dimensions, on one thread — no rank-thread noise.
//!
//! Three streams, because tokens per engine step (and so tokens per wall
//! second) is a property of how one trace's arrivals happen to overlap: one
//! trace per seed moved the throughput by 13 % from seed to seed.

use std::time::Instant;

use xmoe_core::memory::{kv_bytes_per_token, serving_kv_budget};
use xmoe_core::MoeModelConfig;
use xmoe_serve::scheduler::{BatchEntry, Scheduler};
use xmoe_serve::{
    serve, KvLedger, PlacementMode, Request, RequestSpec, ServeConfig, ServeEngine, ServeReport,
    TrafficConfig, TrafficGen,
};
use xmoe_topology::{
    optimize_placement, placement_cost, ClusterTopology, CongestionModel, CostModel,
    ExpertPlacement, MachineSpec, RoutingHistogram,
};

use crate::harness::{plan_units, probe_median_s, timed_units, Opts, Outcome, ROUNDS};
use crate::spans::Recorder;
use crate::{inputs, stats};

const WORLD: usize = 32;
const RATE_RPS: f64 = 400.0;
const SKEW: f64 = 8.0;
const TOPIC_WIDTH: usize = 8;
const REQUESTS: usize = 400;
/// Traffic streams (traces) per unit.
const STREAMS: usize = 3;
/// The warm-up trace of each set-up (fills the worker pool and the page
/// cache; not measured).
const WARMUP_REQUESTS: usize = 100;

fn config(seed: u64, stream: usize, requests: usize) -> ServeConfig {
    let traffic = TrafficConfig::steady(
        RATE_RPS,
        inputs::sub_seed(seed, "serve.traffic", stream as u64, 0),
    )
    .with_skew(SKEW, TOPIC_WIDTH)
    // Topics move half-way through the arrivals.
    .with_drift(0.5 * REQUESTS as f64 / RATE_RPS);
    ServeConfig::new(MoeModelConfig::small(), WORLD, traffic)
        .with_placement(PlacementMode::Optimized)
        .with_requests(requests)
}

/// Reports of every trace run, stream by stream, to check they agree.
struct Reports {
    by_stream: [Vec<ServeReport>; STREAMS],
}

impl Reports {
    /// One unit: every stream's trace once; `false` if the engine refused
    /// a configuration.
    fn unit(&mut self, cfgs: &[ServeConfig; STREAMS], rec: &mut Recorder) -> bool {
        let mut ok = true;
        for (stream, cfg) in cfgs.iter().enumerate() {
            ok &= self.trace(stream, cfg, rec);
        }
        ok
    }

    fn trace(&mut self, stream: usize, cfg: &ServeConfig, rec: &mut Recorder) -> bool {
        let report = if rec.enabled {
            rec.scope("serve.serve", |rec| {
                rec.scope("serve.traffic.trace", |_| {
                    TrafficGen::new(cfg.traffic.clone(), cfg.model.num_experts)
                        .map(|mut g| std::hint::black_box(g.trace(cfg.n_requests)).len())
                })?;
                let engine = rec.scope("serve.engine.new", |_| ServeEngine::new(cfg.clone()))?;
                Ok(rec.scope("serve.engine.run", |_| engine.run()))
            })
        } else {
            serve(cfg.clone())
        };
        match report {
            Ok(r) => {
                self.by_stream[stream].push(r);
                true
            }
            Err(_) => false,
        }
    }

    fn all(&self) -> impl Iterator<Item = &ServeReport> {
        self.by_stream.iter().flatten()
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let cfgs: [ServeConfig; STREAMS] = std::array::from_fn(|k| config(opts.seed, k, REQUESTS));
    let warm_cfg = config(opts.seed, 0, WARMUP_REQUESTS);
    let traces = cfgs.each_ref().map(|cfg| {
        match TrafficGen::new(cfg.traffic.clone(), cfg.model.num_experts) {
            Ok(mut g) => g.trace(REQUESTS),
            Err(e) => panic!("traffic config rejected: {e}"),
        }
    });
    let tokens: usize = traces.iter().flatten().map(|r| r.prompt + r.output).sum();
    let mut out = Outcome::new("serve_skew_drift", tokens as f64);
    let mut rec = Recorder::new(0, Instant::now(), 1 << 10);
    rec.enabled = false;
    // Pre-sized, so a unit's allocation count is the engine's alone.
    let mut reports = Reports {
        by_stream: std::array::from_fn(|_| Vec::with_capacity(64)),
    };

    for _round in 0..ROUNDS {
        let t0 = Instant::now();
        let warm_ok = serve(warm_cfg.clone()).is_ok();
        out.check("warm-up trace runs", warm_ok, String::new());
        let warm_s = t0.elapsed().as_secs_f64();
        out.setup_s.push(warm_s);
        let est = warm_s * (STREAMS * REQUESTS) as f64 / WARMUP_REQUESTS as f64;
        let n = plan_units(est, opts.unit_budget_s(), 1);
        let first = out.total_units();
        out.absorb(timed_units(n, opts.trace, first, &mut rec, |_, rec| {
            reports.unit(&cfgs, rec)
        }));
    }

    // Operations are requests: a trace attempts all of its requests, and a
    // request that is rejected or finishes past its deadline has failed.
    out.attempted = reports.all().map(|r| r.requests as u64).sum();
    out.failed += reports
        .all()
        .map(|r| (r.deadline_miss_rate * r.requests as f64).round() as u64)
        .sum::<u64>();
    for stream in &reports.by_stream {
        check_reports(stream, &mut out);
    }
    if opts.trace {
        if let Some(r) = reports.by_stream[0].first() {
            report_metrics(r, &mut out);
        }
        span_metrics(&rec, &mut out);
        scheduler_replay(&cfgs[0], &traces[0], &mut out);
        placement_probes(&cfgs[0], &traces[0], &mut out);
    }
    out.recorders.push(rec);
    out
}

/// Every repeat of a stream serves the same trace, so its reports must be
/// the same.
fn check_reports(reports: &[ServeReport], out: &mut Outcome) {
    let Some(first) = reports.first() else {
        out.check("at least one trace ran", false, String::new());
        return;
    };
    out.check(
        "every request completes",
        reports
            .iter()
            .all(|r| r.completed == r.requests && r.rejected == 0),
        format!("{} of {}", first.completed, first.requests),
    );
    out.check(
        "kv ledger cross-checks pass",
        reports.iter().all(|r| r.ledger_ok),
        String::new(),
    );
    let same =
        |f: fn(&ServeReport) -> f64| reports.iter().all(|r| f(r).to_bits() == f(first).to_bits());
    out.check(
        "output checksum is identical across repeats",
        same(|r| r.output_checksum),
        format!("{}", first.output_checksum),
    );
    out.check(
        "simulated numbers are identical across repeats",
        same(|r| r.p99_s) && same(|r| r.goodput_tps) && same(|r| r.duration_s),
        String::new(),
    );
}

fn report_metrics(r: &ServeReport, out: &mut Outcome) {
    out.set("sim_p99_ms", r.p99_s * 1e3);
    out.set("sim_goodput_tps", r.goodput_tps);
    out.set("off_node_mb", r.off_node_bytes as f64 / 1e6);
    out.set("sim_step_ms", r.duration_s / r.steps.max(1) as f64 * 1e3);
    out.set("serve.metrics.sim_p50_ms", r.p50_s * 1e3);
    out.set("serve.metrics.deadline_miss_rate", r.deadline_miss_rate);
    out.set("serve.engine.steps", r.steps as f64);
    out.set("serve.engine.resolves", r.resolves as f64);
    out.set("serve.engine.migrated_experts", r.migrated_experts as f64);
    out.set("serve.scheduler.preemptions", r.preemptions as f64);
    let fastest_s = stats::fastest(&out.units_ms) / 1e3;
    if fastest_s > 0.0 {
        out.set("requests_per_s", (STREAMS * r.requests) as f64 / fastest_s);
    }
}

fn span_metrics(rec: &Recorder, out: &mut Outcome) {
    let run_ms = rec.median_ms("serve.engine.run");
    out.set(
        "serve.traffic.trace_ms",
        rec.median_ms("serve.traffic.trace"),
    );
    out.set("serve.engine.new_ms", rec.median_ms("serve.engine.new"));
    out.set("serve.engine.run_s", run_ms / 1e3);
    let steps = out.layer.get("serve.engine.steps").copied().unwrap_or(0.0);
    if run_ms > 0.0 {
        out.set("serve.engine.steps_per_s", steps / (run_ms / 1e3));
    }
}

/// The scheduler alone: `admit` → `plan` → `apply` over the same trace with
/// a fixed service time per step and no model behind it.
fn scheduler_replay(cfg: &ServeConfig, trace: &[RequestSpec], out: &mut Outcome) {
    const STEP_S: f64 = 2e-3;
    let hbm = MachineSpec::frontier().hbm_bytes;
    let budget = serving_kv_budget(&cfg.model, cfg.world, hbm, cfg.max_batch_tokens);
    let mut steps_total = 0u64;
    let per_replay = probe_median_s(5, || {
        let mut sched = Scheduler::new(cfg.max_batch_tokens, cfg.prefill_chunk)
            .expect("default batch budget is valid");
        let mut ledger = KvLedger::new(cfg.world, budget, kv_bytes_per_token(&cfg.model));
        let mut plan: Vec<BatchEntry> = Vec::new();
        let (mut now, mut next, mut steps) = (0.0f64, 0usize, 0u64);
        loop {
            while next < trace.len() && trace[next].arrival_s <= now {
                let spec = &trace[next];
                sched.push(Request::new(
                    spec,
                    spec.id as usize % cfg.world,
                    f64::INFINITY,
                ));
                next += 1;
            }
            sched.admit(now, &mut ledger);
            if sched.plan(&mut plan) == 0 {
                if next == trace.len() {
                    break;
                }
                now = now.max(trace[next].arrival_s);
                continue;
            }
            now += STEP_S;
            sched.apply(&plan, now, &mut ledger);
            steps += 1;
        }
        steps_total = steps;
    });
    if steps_total > 0 {
        out.set(
            "serve.scheduler.step_us",
            per_replay / steps_total as f64 * 1e6,
        );
    }
}

/// Placement solving and pricing on a histogram of the trace's topic bands.
fn placement_probes(cfg: &ServeConfig, trace: &[RequestSpec], out: &mut Outcome) {
    let e = cfg.model.num_experts;
    let Ok(gen) = TrafficGen::new(cfg.traffic.clone(), e) else {
        return;
    };
    let topo = ClusterTopology::new(MachineSpec::frontier(), cfg.world);
    let cost = CostModel::new(topo).with_congestion(CongestionModel::none());
    let wire = cfg.model.hidden as u64 * cfg.model.dtype.bytes();
    let mut hist = RoutingHistogram::new(e, cfg.world, 8192);
    let mut band = Vec::new();
    for spec in trace {
        gen.experts_of_topic(spec.topic, 0.0, &mut band);
        band.truncate(cfg.model.top_k);
        for _ in 0..spec.prompt {
            hist.observe(spec.id as usize % cfg.world, &band);
        }
    }
    let optimize = probe_median_s(5, || {
        std::hint::black_box(optimize_placement(&hist, &cost, wire));
    });
    out.set("topology.placement.optimize_ms", optimize * 1e3);
    let naive = ExpertPlacement::naive(e, cfg.world);
    let price = probe_median_s(20, || {
        std::hint::black_box(placement_cost(&naive, &hist, &cost, wire));
    });
    out.set("topology.placement.cost_us", price * 1e6);
    let group: Vec<usize> = (0..cfg.world).collect();
    let sparse = probe_median_s(50, || {
        // A band-shaped exchange: each rank sends to its next four peers.
        std::hint::black_box(cost.sparse_exchange_time(&group, &|i, j| {
            if (j + cfg.world - i) % cfg.world <= 4 && i != j {
                64 * wire
            } else {
                0
            }
        }));
    });
    out.set("topology.cost.sparse_exchange_price_us", sparse * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_follows_the_seed() {
        let trace = |seed| {
            let cfg = config(seed, 0, 30);
            let mut g = TrafficGen::new(cfg.traffic, cfg.model.num_experts).unwrap();
            g.trace(30)
                .iter()
                .map(|r| (r.arrival_s.to_bits(), r.prompt, r.output, r.topic))
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(9), trace(9));
        assert_ne!(trace(9), trace(10));
        let streams = [0, 1].map(|k| config(9, k, 30).traffic.seed);
        assert_ne!(streams[0], streams[1]);
    }
}
