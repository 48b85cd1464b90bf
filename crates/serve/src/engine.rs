//! The serving loop: continuous batching over the real MoE forward, with
//! every distributed consequence priced on the topology cost model.
//!
//! Each engine step (a) plans a batch from the scheduler, (b) materializes
//! token features and runs the *actual* padding-free pipeline through the
//! [`Pipeline`] trait under a pooled [`ExecCtx`] — real gating, real expert
//! GEMMs on dimension-scaled weights — and (c) prices what that step would
//! cost on the simulated cluster: home-rank attention + gating compute, the
//! dispatch/combine all-to-alls under the *current expert placement* (with
//! RBD-style node dedup), and the straggler expert rank's FFN compute. The
//! priced time advances the simulated clock that latencies and deadlines
//! are measured against, so expert placement directly moves p50/p99.
//!
//! Placement runs MoETuner-style: routing histograms accumulate per
//! profiling window; in [`PlacementMode::Optimized`] the first window ends
//! with a greedy solve over the cost model, and later windows re-solve when
//! the [`SpikeDetector`] flags the window's off-node-bytes-per-token
//! drifting above its history (topic drift moved the hot experts).

use xmoe_core::config::MoeModelConfig;
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::Router;
use xmoe_core::memory::{kv_bytes_per_token, serving_kv_budget};
use xmoe_core::pipeline::{
    ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, PooledSingleState,
};
use xmoe_tensor::DetRng;
use xmoe_topology::{
    optimize_placement, placement_cost, ClusterTopology, CongestionModel, CostModel,
    ExpertPlacement, MachineSpec, RoutingHistogram,
};
use xmoe_train::guard::{SpikeDetector, Verdict};

use crate::error::ServeError;
use crate::kv::KvLedger;
use crate::metrics::ServeReport;
use crate::scheduler::{BatchEntry, Request, Scheduler};
use crate::traffic::{TrafficConfig, TrafficGen};

/// How expert→rank placement is managed over the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementMode {
    /// Round-robin (`expert % world`) for the whole run, never re-solved.
    Naive,
    /// Profile the first window, solve greedily over the cost model, then
    /// re-solve whenever the spike detector flags off-node drift.
    Optimized,
}

impl PlacementMode {
    pub fn name(self) -> &'static str {
        match self {
            PlacementMode::Naive => "naive",
            PlacementMode::Optimized => "optimized",
        }
    }
}

/// Everything a serving run needs. The `model` config supplies the
/// *priced* dimensions (hidden size, expert count, KV bytes, HBM budget);
/// the numerics run at `hidden / dim_scale` so sweeps stay fast while the
/// routing distribution is the real gate's.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub model: MoeModelConfig,
    /// Serving ranks (expert-parallel world size).
    pub world: usize,
    pub traffic: TrafficConfig,
    pub n_requests: usize,
    pub placement: PlacementMode,
    /// Per-step token budget across all resident requests.
    pub max_batch_tokens: usize,
    /// Max prompt tokens one request prefills per step.
    pub prefill_chunk: usize,
    /// Numerics dimension divisor (pricing always uses full dims).
    pub dim_scale: usize,
    /// Steps per profiling window (histogram + ledger cross-check cadence).
    pub window_steps: u64,
    /// Safety horizon: the run drains or stops at this simulated time.
    pub max_sim_s: f64,
}

impl ServeConfig {
    /// A Frontier-node-count sized default around the given traffic.
    /// Construction is infallible; every shape requirement is checked by
    /// [`validate`](Self::validate) when the engine is built, so a bad
    /// CLI flag surfaces as a [`ServeError`] instead of a panic.
    pub fn new(model: MoeModelConfig, world: usize, traffic: TrafficConfig) -> Self {
        Self {
            model,
            world,
            traffic,
            n_requests: 200,
            placement: PlacementMode::Naive,
            max_batch_tokens: 256,
            prefill_chunk: 64,
            dim_scale: 16,
            window_steps: 64,
            max_sim_s: 3600.0,
        }
    }

    pub fn with_placement(mut self, placement: PlacementMode) -> Self {
        self.placement = placement;
        self
    }

    pub fn with_requests(mut self, n: usize) -> Self {
        self.n_requests = n;
        self
    }

    /// Reject every degenerate shape a CLI flag can reach before any
    /// engine state is built. Traffic-side validity (rate, SLO scale,
    /// token ranges) is checked by [`TrafficGen::new`].
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.world < 1 {
            return Err(ServeError::config("need at least one serving rank"));
        }
        if !self.model.num_experts.is_multiple_of(self.world) {
            return Err(ServeError::config(format!(
                "experts {} must divide over {} serving ranks",
                self.model.num_experts, self.world
            )));
        }
        if self.n_requests < 1 {
            return Err(ServeError::config(
                "need at least one request (an empty trace has no latencies to report)",
            ));
        }
        if self.dim_scale < 1 {
            return Err(ServeError::config(
                "dim_scale must be >= 1 (it divides the numerics dimensions)",
            ));
        }
        if self.max_batch_tokens < 1 || self.prefill_chunk < 1 {
            return Err(ServeError::config(format!(
                "batch budget and prefill chunk must both be >= 1 token, \
                 got max_batch_tokens {} prefill_chunk {}",
                self.max_batch_tokens, self.prefill_chunk
            )));
        }
        if self.window_steps < 1 {
            return Err(ServeError::config("window_steps must be >= 1"));
        }
        if !(self.max_sim_s.is_finite() && self.max_sim_s > 0.0) {
            return Err(ServeError::config(format!(
                "max_sim_s must be a positive finite horizon, got {}",
                self.max_sim_s
            )));
        }
        Ok(())
    }
}

/// The serving simulation. Construct with [`ServeEngine::new`], drive to
/// completion with [`ServeEngine::run`].
pub struct ServeEngine {
    cfg: ServeConfig,
    gen: TrafficGen,
    sched: Scheduler,
    ledger: KvLedger,
    cost: CostModel,
    router: Router,
    experts: ExpertShard,
    layer_spec: MoeLayerSpec,
    state: PooledSingleState,
    rng: DetRng,
    placement: ExpertPlacement,
    /// Pricing histogram, rebuilt every step from the step's routes.
    step_hist: RoutingHistogram,
    /// Profiling histogram, cleared every window.
    window_hist: RoutingHistogram,
    /// Whole-run expert loads (for the report's skew field).
    run_loads: Vec<u64>,
    detector: SpikeDetector,
    profiled: bool,
    est_step_s: f64,
    now: f64,
    window_off_bytes: u64,
    window_tokens: u64,
    report: ServeReport,
}

/// Attention + QKVO flops per token at hidden size `h` (KV-length terms
/// are deliberately not modeled — a fixed per-token estimate keeps step
/// pricing placement-independent on the home side).
fn attn_flops(h: f64) -> f64 {
    8.0 * h * h
}

/// Expert FFN flops per (token, expert) pair: two `h × f` GEMMs.
fn expert_flops(h: f64, f: f64) -> f64 {
    4.0 * h * f
}

impl ServeEngine {
    pub fn new(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let e = cfg.model.num_experts;
        let k = cfg.model.top_k;
        let h = (cfg.model.hidden / cfg.dim_scale).max(32);
        let f = (cfg.model.ffn_hidden / cfg.dim_scale).max(32);
        let topo = ClusterTopology::new(MachineSpec::frontier(), cfg.world);
        let hbm = topo.spec().hbm_bytes;
        let cost = CostModel::new(topo).with_congestion(CongestionModel::none());
        let budget = serving_kv_budget(&cfg.model, cfg.world, hbm, cfg.max_batch_tokens);
        let ledger = KvLedger::new(cfg.world, budget, kv_bytes_per_token(&cfg.model));
        let gen = TrafficGen::new(cfg.traffic.clone(), e)?;
        let seed = cfg.traffic.seed;
        let router = Router::new(h, e, k, seed ^ 0x5e4e_0001);
        let experts = ExpertShard::full(e, h, f, seed ^ 0x5e4e_0002);
        let layer_spec = MoeLayerSpec::new(e, cfg.model.expert_capacity(cfg.max_batch_tokens));
        // Deadline yardstick: one full batch's compute spread over the
        // world plus a uniform all-to-all of the batch.
        let hp = cfg.model.hidden as f64;
        let fp = cfg.model.ffn_hidden as f64;
        let wire = cfg.model.hidden as u64 * cfg.model.dtype.bytes();
        let per_rank_tokens = (cfg.max_batch_tokens / cfg.world).max(1) as u64;
        let group: Vec<usize> = (0..cfg.world).collect();
        let uniform_a2a = cost.alltoallv_time(&group, &|_, _| per_rank_tokens * wire);
        let est_step_s = cost.compute_time(
            per_rank_tokens as f64 * (attn_flops(hp) + k as f64 * expert_flops(hp, fp)),
        ) + 2.0 * uniform_a2a;
        Ok(Self {
            sched: Scheduler::new(cfg.max_batch_tokens, cfg.prefill_chunk)?,
            ledger,
            cost,
            router,
            experts,
            layer_spec,
            state: PooledSingleState::default(),
            rng: DetRng::new(seed ^ 0x5e4e_0003),
            placement: ExpertPlacement::naive(e, cfg.world),
            step_hist: RoutingHistogram::new(e, cfg.world, cfg.max_batch_tokens.max(1)),
            window_hist: RoutingHistogram::new(e, cfg.world, 8192),
            run_loads: vec![0; e],
            detector: SpikeDetector::new(1.5, 8, 3),
            profiled: false,
            est_step_s,
            now: 0.0,
            window_off_bytes: 0,
            window_tokens: 0,
            report: ServeReport {
                ledger_ok: true,
                ..Default::default()
            },
            gen,
            cfg,
        })
    }

    /// The live expert placement (for telemetry / the CLI).
    pub fn placement(&self) -> &ExpertPlacement {
        &self.placement
    }

    /// Run the whole trace to drain and return the report.
    pub fn run(mut self) -> ServeReport {
        let trace = self.gen.trace(self.cfg.n_requests);
        let mut next = 0usize;
        let mut plan: Vec<BatchEntry> = Vec::new();
        let mut band: Vec<usize> = Vec::new();
        while self.now < self.cfg.max_sim_s {
            while next < trace.len() && trace[next].arrival_s <= self.now {
                let spec = &trace[next];
                let steps = (spec.prompt.div_ceil(self.cfg.prefill_chunk) + spec.output) as f64;
                let deadline =
                    spec.arrival_s + self.cfg.traffic.slo_scale * steps * self.est_step_s;
                let home = (spec.id as usize) % self.cfg.world;
                self.sched.push(Request::new(spec, home, deadline));
                next += 1;
            }
            self.sched.admit(self.now, &mut self.ledger);
            let est_step = self.est_step_s;
            let chunk = self.cfg.prefill_chunk;
            let est = move |r: &Request| {
                ((r.prefill_target() - r.prefill_done).div_ceil(chunk) + r.remaining_output())
                    as f64
                    * est_step
            };
            if self
                .sched
                .preempt_for_deadline(self.now, &mut self.ledger, &est)
                .is_some()
            {
                self.sched.admit(self.now, &mut self.ledger);
            }
            let batch_tokens = self.sched.plan(&mut plan);
            if batch_tokens == 0 {
                if next < trace.len() {
                    // Idle: jump to the next arrival.
                    self.now = self.now.max(trace[next].arrival_s);
                    continue;
                }
                if self.sched.all_done() {
                    break;
                }
                // Un-admittable stragglers: advance to the earliest queued
                // deadline so `admit` rejects them.
                let next_deadline = self
                    .sched
                    .requests
                    .iter()
                    .filter(|r| r.state == crate::scheduler::ReqState::Queued)
                    .map(|r| r.deadline_s)
                    .fold(f64::INFINITY, f64::min);
                if !next_deadline.is_finite() {
                    break;
                }
                self.now = self.now.max(next_deadline) + 1e-9;
                continue;
            }
            let step_s = self.execute_step(&plan, batch_tokens, &mut band);
            self.now += step_s;
            self.sched.apply(&plan, self.now, &mut self.ledger);
            self.report.steps += 1;
            if self.report.steps.is_multiple_of(self.cfg.window_steps) {
                self.end_window();
            }
        }
        self.end_window();
        self.report.duration_s = self.now;
        self.report.preemptions = self.sched.preemptions;
        let total: u64 = self.run_loads.iter().sum();
        if total > 0 {
            let max = *self.run_loads.iter().max().unwrap() as f64;
            self.report.skew = max / (total as f64 / self.run_loads.len() as f64);
        }
        self.report.summarize(&self.sched.requests);
        self.report
    }

    /// Run the real forward for one planned batch and price it; returns
    /// the step's simulated seconds.
    fn execute_step(
        &mut self,
        plan: &[BatchEntry],
        batch_tokens: usize,
        band: &mut Vec<usize>,
    ) -> f64 {
        let h = self.router.weight.rows();
        let e = self.cfg.model.num_experts;
        let mut tokens = self.state.ws.take(batch_tokens, h);
        {
            let w = self.router.weight.as_slice();
            let data = tokens.as_mut_slice();
            let mut row = 0usize;
            for entry in plan {
                let topic = self.sched.requests[entry.req].topic;
                self.gen.experts_of_topic(topic, self.now, band);
                for _ in 0..entry.tokens {
                    let out = &mut data[row * h..(row + 1) * h];
                    for (i, v) in out.iter_mut().enumerate() {
                        // Steer the gate toward the topic band (the gain
                        // dominates the cross-expert correlation noise, so
                        // ~99% of top-k picks stay in-band), plus noise.
                        let mut x = 0.2 * self.rng.next_gaussian() as f32;
                        for &be in band.iter() {
                            x += 4.0 * w[i * e + be];
                        }
                        *v = x;
                    }
                    row += 1;
                }
            }
        }
        // Drive the pipeline engine: the actual forward numerics.
        let out = PaddingFreePipeline
            .forward(
                &tokens,
                &self.router,
                &self.experts,
                &self.layer_spec,
                &mut ExecCtx::pooled(&mut self.state),
            )
            .expect("single-rank serving forward cannot fault");
        self.report.output_checksum += out.as_slice()[0] as f64;
        self.state.ws.recycle(out);
        self.state.ws.recycle(tokens);
        // The forward's own routing decisions feed the histograms.
        let gating = self.state.gating();
        self.step_hist.clear();
        let mut row = 0usize;
        for entry in plan {
            let home = self.sched.requests[entry.req].home_rank;
            for _ in 0..entry.tokens {
                let experts = gating.experts_of(row);
                self.step_hist.observe(home, experts);
                self.window_hist.observe(home, experts);
                for &ex in experts {
                    self.run_loads[ex] += 1;
                }
                row += 1;
            }
        }
        // Price the step on the simulated cluster.
        let wire = self.cfg.model.hidden as u64 * self.cfg.model.dtype.bytes();
        let c = placement_cost(&self.placement, &self.step_hist, &self.cost, wire);
        // Dispatch and combine are mirror all-to-alls.
        self.report.off_node_bytes += 2 * c.off_node_bytes;
        self.report.dispatch_s += 2.0 * c.dispatch_time;
        self.window_off_bytes += 2 * c.off_node_bytes;
        self.window_tokens += batch_tokens as u64;
        let hp = self.cfg.model.hidden as f64;
        let fp = self.cfg.model.ffn_hidden as f64;
        // Home-side compute: the busiest home rank's attention + gate.
        let mut home_tokens = vec![0u64; self.cfg.world];
        for entry in plan {
            home_tokens[self.sched.requests[entry.req].home_rank] += entry.tokens as u64;
        }
        let max_home = home_tokens.into_iter().max().unwrap_or(0) as f64;
        let gate_flops = 2.0 * hp * e as f64;
        let home_s = self
            .cost
            .compute_time(max_home * (attn_flops(hp) + gate_flops));
        let expert_s = self
            .cost
            .compute_time(c.max_rank_load as f64 * expert_flops(hp, fp));
        home_s + 2.0 * c.dispatch_time + expert_s
    }

    /// Window boundary: ledger cross-check, drift detection, re-solve.
    fn end_window(&mut self) {
        let (reserved, live) = self.sched.recount_kv(self.cfg.world);
        if !self.ledger.cross_check(&reserved, &live) {
            self.report.ledger_ok = false;
        }
        if self.window_tokens == 0 {
            return;
        }
        let off_per_token = self.window_off_bytes as f64 / self.window_tokens as f64;
        let verdict = self.detector.observe(off_per_token);
        if self.cfg.placement == PlacementMode::Optimized {
            let drifted = matches!(verdict, Verdict::Spike { .. });
            if !self.profiled || drifted {
                let wire = self.cfg.model.hidden as u64 * self.cfg.model.dtype.bytes();
                let solved = optimize_placement(&self.window_hist, &self.cost, wire);
                let migrated = self.placement.migrated_experts(&solved);
                if !self.profiled || migrated > 0 {
                    self.report.migrated_experts += migrated;
                    self.placement = solved;
                    self.report.resolves += 1;
                }
                self.profiled = true;
                // The placement (or the accepted traffic regime) just
                // changed, so the off-node baseline shifts with it: restart
                // the detector rather than judging the new level against
                // the old one.
                self.detector = SpikeDetector::new(1.5, 8, 3);
            }
        }
        self.window_hist.clear();
        self.window_off_bytes = 0;
        self.window_tokens = 0;
    }
}

/// Convenience: validate, build, run, report.
pub fn serve(cfg: ServeConfig) -> Result<ServeReport, ServeError> {
    Ok(ServeEngine::new(cfg)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ServeConfig {
        ServeConfig::new(
            MoeModelConfig::custom("degenerate", 2048, 2048, 1408, 64, 6, 28),
            32,
            TrafficConfig::steady(400.0, 1),
        )
    }

    /// Regression: every one of these either panicked (asserts in
    /// `ServeConfig::new` / `Scheduler::new` / `TrafficGen::new`) or hung
    /// the arrival loop before construction became fallible.
    #[test]
    fn degenerate_configs_are_clean_errors() {
        let mut uneven = base();
        uneven.world = 24; // 64 % 24 != 0
        assert!(serve(uneven).is_err());

        let mut no_ranks = base();
        no_ranks.world = 0;
        assert!(serve(no_ranks).is_err());

        assert!(serve(base().with_requests(0)).is_err());

        let mut zero_batch = base();
        zero_batch.max_batch_tokens = 0;
        assert!(serve(zero_batch).is_err());

        let mut zero_chunk = base();
        zero_chunk.prefill_chunk = 0;
        assert!(serve(zero_chunk).is_err());

        let mut zero_dim = base();
        zero_dim.dim_scale = 0;
        assert!(serve(zero_dim).is_err());

        let mut bad_horizon = base();
        bad_horizon.max_sim_s = 0.0;
        assert!(serve(bad_horizon).is_err());

        let mut zero_rate = base();
        zero_rate.traffic.rate_rps = 0.0;
        assert!(serve(zero_rate).is_err());

        let mut dead_slo = base();
        dead_slo.traffic.slo_scale = -1.0;
        assert!(serve(dead_slo).is_err());
    }

    /// The errors carry the offending value, not just a category.
    #[test]
    fn errors_name_the_bad_value() {
        let mut zero_rate = base();
        zero_rate.traffic.rate_rps = -3.0;
        let msg = serve(zero_rate).unwrap_err().to_string();
        assert!(msg.contains("-3"), "got: {msg}");
        let mut uneven = base();
        uneven.world = 24;
        let msg = serve(uneven).unwrap_err().to_string();
        assert!(msg.contains("64") && msg.contains("24"), "got: {msg}");
    }
}
