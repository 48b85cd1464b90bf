//! `rbd_sim_2x8`: 16 ranks on two simulated Frontier nodes.
//!
//! One unit runs, on identical tokens, one flat-EP `PaddingFreePipeline`
//! forward, one `RbdPipeline` forward and one `RbdPipeline` forward with
//! `with_overlap(4)`. This is the paper-facing clock: the deterministic
//! simulated step time of each and the inter-node bytes RBD removes.
//! Sixteen rank threads share this box's cores, so the wall-clock numbers of
//! this workload carry the loosest reading of all six.

use std::time::Instant;

use xmoe_collectives::{RankCtx, SimCluster};
use xmoe_core::gating::Router;
use xmoe_core::pft::Pft;
use xmoe_core::pipeline::{
    ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, PipelineError, PooledSingleState,
    RbdPipeline,
};
use xmoe_core::rbd::{redundancy_rate, PilotPolicy, RbdComms};
use xmoe_core::ExpertShard;
use xmoe_tensor::{DetRng, Tensor};

use crate::harness::{
    bitwise_eq, plan_units, timed_units, LoopStats, Opts, Outcome, RoundSync, ROUNDS,
};
use crate::spans::Recorder;
use crate::workloads::sim;
use crate::{inputs, stats};

const WORLD: usize = 16;
const RANKS_PER_NODE: usize = 8;
const S: usize = 256;
const H: usize = 128;
const F: usize = 16;
const E: usize = 64;
const K: usize = 8;
const OVERLAP_CHUNKS: usize = 4;
const WARMUP_UNITS: usize = 4;
const RING: usize = 4;
/// Forwards of each transport's deterministic window (see `sim::Window`):
/// once over the batch ring.
const SIM_WINDOW: usize = RING;
const WEIGHT_SEED: u64 = 0x4BD0_0001;
/// No drops: every output is comparable to the single-rank reference.
const CAPACITY: usize = 100_000;

const RBD: RbdPipeline = RbdPipeline {
    policy: PilotPolicy::Random,
};

/// The three transports, in the order a unit runs them.
const TRANSPORTS: [&str; 3] = ["flat EP", "RBD", "RBD overlap"];

struct RankRound {
    stats: LoopStats,
    rec: Recorder,
    /// Last round only: one deterministic window per transport, and batch 0
    /// with its three outputs for the reference check.
    windows: Option<[sim::Window; 3]>,
    sample: Option<(Tensor, [Tensor; 3])>,
    error: Option<PipelineError>,
}

struct Rank<'a> {
    router: &'a Router,
    spec: &'a MoeLayerSpec,
    shard: ExpertShard,
    comms: RbdComms,
    batches: Vec<Tensor>,
    state: PooledSingleState,
    calls: usize,
    error: Option<PipelineError>,
}

impl Rank<'_> {
    /// Forward batch `i` through transport `which` (see [`TRANSPORTS`]).
    fn forward(
        &mut self,
        which: usize,
        i: usize,
        ctx: &mut RankCtx,
    ) -> Result<Tensor, PipelineError> {
        let x = &self.batches[i % RING];
        // RBD serial and overlap draw the same pilots, so their outputs are
        // comparable bit for bit.
        let mut rng = DetRng::new(WEIGHT_SEED ^ ((i * WORLD + ctx.rank) as u64));
        match which {
            0 => PaddingFreePipeline.forward(
                x,
                self.router,
                &self.shard,
                self.spec,
                &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
            ),
            1 => RBD.forward(
                x,
                self.router,
                &self.shard,
                self.spec,
                &mut ExecCtx::hier(&self.comms, &mut ctx.clock)
                    .with_state(&mut self.state)
                    .with_rng(&mut rng),
            ),
            _ => RBD.forward(
                x,
                self.router,
                &self.shard,
                self.spec,
                &mut ExecCtx::hier(&self.comms, &mut ctx.clock)
                    .with_state(&mut self.state)
                    .with_rng(&mut rng)
                    .with_overlap(OVERLAP_CHUNKS),
            ),
        }
    }

    /// `SIM_WINDOW` forwards of one transport as a deterministic window.
    fn window(&mut self, which: usize, ctx: &mut RankCtx) -> sim::Window {
        self.comms.node.reset_traffic();
        let mut w = sim::window(ctx, |ctx| {
            for i in 0..SIM_WINDOW {
                match self.forward(which, i, ctx) {
                    Ok(out) if which > 0 => self.state.ws.recycle(out),
                    Ok(_) => {}
                    Err(e) => {
                        self.error.get_or_insert(e);
                    }
                }
            }
        });
        // RBD's node-local redistribution runs over the node communicator.
        w.trace.traffic.intra_node += self.comms.node.traffic().intra_node;
        w
    }

    /// One unit: the three pipelines on the next batch of the ring.
    fn unit(&mut self, ctx: &mut RankCtx, rec: &mut Recorder) -> bool {
        const SPANS: [&str; 3] = [
            "core.pipeline.ep_forward",
            "core.rbd.forward",
            "core.rbd.forward_overlap",
        ];
        let i = self.calls;
        self.calls += 1;
        let mut ok = true;
        for (which, span) in SPANS.into_iter().enumerate() {
            match rec.scope(span, |_| self.forward(which, i, ctx)) {
                // RBD outputs are leased from the pooled state.
                Ok(out) if which > 0 => self.state.ws.recycle(out),
                Ok(_) => {}
                Err(e) => {
                    self.error.get_or_insert(e);
                    ok = false;
                }
            }
        }
        // Spans of finished forwards are not needed; without this the
        // clock's span list (and the heap) grows with the run length.
        ctx.clock.reset_buckets();
        ok
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let tokens_per_unit = (3 * S * WORLD) as f64;
    let mut out = Outcome::new("rbd_sim_2x8", tokens_per_unit);
    let router = Router::new(H, E, K, WEIGHT_SEED);
    let spec = MoeLayerSpec::new(E, CAPACITY);
    let epoch = Instant::now();

    for round in 0..ROUNDS {
        let last = round + 1 == ROUNDS;
        let sync = RoundSync::start(WORLD);
        let first_unit = out.total_units();
        let mut ranks = SimCluster::frontier(WORLD).run(|ctx| {
            let lead = ctx.rank == 0;
            let mut rec = Recorder::new(ctx.rank as u32, epoch, 1 << 12);
            rec.enabled = false;
            let comms = match RbdComms::create(&ctx.world, &mut ctx.clock) {
                Ok(c) => c,
                Err(e) => panic!("rank {}: node split failed: {e}", ctx.rank),
            };
            let mut rank = Rank {
                router: &router,
                spec: &spec,
                shard: ExpertShard::for_rank(ctx.rank, WORLD, E, H, F, WEIGHT_SEED + 1),
                comms,
                batches: inputs::token_ring(RING, S, H, opts.seed, "rbd", ctx.rank),
                state: PooledSingleState::default(),
                calls: 0,
                error: None,
            };
            let mut warm = Vec::with_capacity(WARMUP_UNITS);
            for _ in 0..WARMUP_UNITS {
                let t = Instant::now();
                rank.unit(ctx, &mut rec);
                warm.push(t.elapsed().as_secs_f64());
            }
            let plan = lead.then(|| {
                plan_units(
                    stats::median(&warm[WARMUP_UNITS / 2..]),
                    opts.unit_budget_s(),
                    8,
                )
            });
            let n = sync.agree(plan);

            let stats = timed_units(n, opts.trace, first_unit, &mut rec, |_, rec| {
                rank.unit(ctx, rec)
            });

            let (mut windows, mut sample) = (None, None);
            if last {
                windows = Some([0, 1, 2].map(|which| rank.window(which, ctx)));
                let outs = [0, 1, 2].map(|which| rank.forward(which, 0, ctx));
                if let [Ok(a), Ok(b), Ok(c)] = outs {
                    sample = Some((rank.batches[0].clone(), [a, b, c]));
                }
            }
            RankRound {
                stats,
                rec,
                windows,
                sample,
                error: rank.error,
            }
        });
        out.setup_s.push(sync.setup_s());
        out.attempted += (3 * WARMUP_UNITS) as u64;

        if let Some(e) = ranks.iter().find_map(|r| r.error.as_ref()) {
            out.check("every forward returns Ok", false, e.to_string());
        }
        if last {
            out.attempted += (3 * SIM_WINDOW) as u64;
            check_against_reference(&ranks, &router, &spec, &mut out);
            let mut per_transport: [Vec<sim::Window>; 3] = Default::default();
            for r in &mut ranks {
                if let Some(ws) = r.windows.take() {
                    for (slot, w) in per_transport.iter_mut().zip(ws) {
                        slot.push(w);
                    }
                }
            }
            window_checks_and_metrics(&per_transport, opts.trace, &mut out);
        }
        for r in ranks.iter().skip(1) {
            out.vol_switches += r.stats.vol_switches;
        }
        let mut ranks = ranks.into_iter();
        let lead = ranks.next().expect("rank 0");
        let lead_units = lead.stats.units() as u64;
        out.absorb(lead.stats);
        out.attempted += lead_units * 2; // a unit is three forwards
        out.recorders.push(lead.rec);
        out.recorders.extend(ranks.map(|r| r.rec));
    }

    if opts.trace {
        out.set(
            "core.rbd.redundancy_rate",
            mean_redundancy(&router, &spec, opts),
        );
        let lead_spans = |name: &str| {
            let mut xs = Vec::new();
            for r in out.recorders.iter().filter(|r| r.tid == 0) {
                xs.extend(r.durations_ms(name));
            }
            stats::median(&xs)
        };
        let (ep, rbd) = (
            lead_spans("core.pipeline.ep_forward"),
            lead_spans("core.rbd.forward"),
        );
        out.set("core.pipeline.ep_forward_ms", ep);
        out.set("core.rbd.forward_ms", rbd);
        let skew = sim::rank_skew_ms(&out.recorders, "core.rbd.forward", |s| s.start_ns);
        out.set("core.pipeline.ep_rank_skew_ms", skew);
    }
    out
}

/// Simulated step time and inter-node bytes of each transport, from its
/// window: the claims RBD makes, checked; the numbers, reported when traced.
fn window_checks_and_metrics(windows: &[Vec<sim::Window>; 3], trace: bool, out: &mut Outcome) {
    let inter_mb = windows.each_ref().map(|ws| {
        ws.iter().map(|w| w.trace.traffic.inter_node).sum::<u64>() as f64 / SIM_WINDOW as f64 / 1e6
    });
    let sim_ms = windows
        .each_ref()
        .map(|ws| sim::window_step_ms(ws, SIM_WINDOW));
    out.check(
        "RBD moves fewer inter-node bytes than flat EP",
        inter_mb[1] > 0.0 && inter_mb[1] < inter_mb[0],
        format!(
            "EP {:.3} MB, RBD {:.3} MB per step",
            inter_mb[0], inter_mb[1]
        ),
    );
    out.check(
        "overlap changes timing, never payload",
        inter_mb[1] == inter_mb[2],
        String::new(),
    );
    out.check(
        "every transport's simulated step time is positive",
        sim_ms.iter().all(|t| *t > 0.0),
        format!("{TRANSPORTS:?} = {sim_ms:?} ms"),
    );
    if trace {
        // Stage labels both transports charge (gating, expert, buffers)
        // read as RBD's: its window is folded last.
        sim::window_metrics(&windows[0], SIM_WINDOW, out);
        sim::window_metrics(&windows[1], SIM_WINDOW, out);
        out.set("sim_ep_step_ms", sim_ms[0]);
        out.set("sim_step_ms", sim_ms[1]);
        out.set("sim_overlap_step_ms", sim_ms[2]);
        out.set("inter_node_mb_per_step", inter_mb[1]);
        out.set("core.rbd.inter_node_reduction_x", inter_mb[0] / inter_mb[1]);
    }
}

/// All three transports must match the single-rank reference (all experts
/// local) at the tolerance `tests/pipeline_equivalence.rs` uses, and the
/// overlapped RBD forward must equal the serial one bit for bit.
fn check_against_reference(
    ranks: &[RankRound],
    router: &Router,
    spec: &MoeLayerSpec,
    out: &mut Outcome,
) {
    let full = ExpertShard::full(E, H, F, WEIGHT_SEED + 1);
    let mut worst = 0.0f32;
    let (mut close, mut overlap_bitwise) = (true, true);
    for r in ranks {
        let Some((x, outs)) = &r.sample else {
            close = false;
            continue;
        };
        match PaddingFreePipeline.forward(x, router, &full, spec, &mut ExecCtx::single()) {
            Ok(want) => {
                for y in outs {
                    worst = worst.max(y.max_abs_diff(&want));
                    close &= y.allclose(&want, 2e-4);
                }
            }
            Err(_) => close = false,
        }
        overlap_bitwise &= bitwise_eq(&outs[1], &outs[2]);
    }
    out.check(
        "EP, RBD and RBD-overlap outputs == single-rank reference (tol 2e-4)",
        close,
        format!("max abs diff {worst}"),
    );
    out.check(
        "RBD overlap == RBD serial bitwise",
        overlap_bitwise,
        String::new(),
    );
}

/// Mean redundancy rate (paper Fig 4) of rank 0's batches: the share of
/// routed rows whose token already travels to the same node.
fn mean_redundancy(router: &Router, spec: &MoeLayerSpec, opts: &Opts) -> f64 {
    let experts_per_node = E / WORLD * RANKS_PER_NODE;
    let rates: Vec<f64> = inputs::token_ring(RING, S, H, opts.seed, "rbd", 0)
        .iter()
        .map(|x| {
            let pft = Pft::construct(&router.gate(x), E, spec.capacity, spec.policy);
            redundancy_rate(&pft, |e| e / experts_per_node)
        })
        .collect();
    rates.iter().sum::<f64>() / rates.len() as f64
}
