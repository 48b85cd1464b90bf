//! Pipeline-parallel 1F1B schedules over virtual stages.
//!
//! The PR-6 engine executes one MoE layer; this module strings *stage
//! chunks* (contiguous layer slices) across a pipeline-parallel group and
//! drives them with the Megatron-style one-forward-one-backward schedule,
//! in both its non-interleaved (`v = 1`) and interleaved (`v > 1` virtual
//! chunks per rank) forms.
//!
//! Virtual-stage layout: with `p` pipeline ranks and `v` chunks per rank,
//! virtual stage `g ∈ [0, p·v)` lives on rank `g % p` as its chunk
//! `g / p`. Activations flow `g → g+1` over tag-matched point-to-point
//! sends ([`Communicator::send_p2p`]); gradients flow back `g+1 → g`.
//! Sends are eager (buffered) and receives match on `(stage, microbatch,
//! direction)` tags through a [`P2pStash`], which is what makes the
//! interleaved schedule deadlock-free without a handshake protocol.
//!
//! Timing model: stage-internal compute runs single-rank (bit-identical to
//! the unpipelined reference by construction — the schedule only changes
//! *when* each chunk runs, never its inputs), and the executor charges the
//! analytic kernel time for each forward plus [`BWD_COMPUTE_FACTOR`]× that
//! for the matching backward. With uniform per-op time the measured bubble
//! fraction converges to the analytic `(p-1)/(v·m + p-1)`.

use xmoe_collectives::{Communicator, P2pStash, SimClock};
use xmoe_tensor::Tensor;

use crate::config::MoeModelConfig;
use crate::layer::MoeLayer;
use crate::pipeline::PipelineError;

/// Backward costs ~2x forward for the matmul-dominated blocks simulated
/// here (dgrad + wgrad) — the same constant the analytic perf model uses,
/// so measured and modelled schedules agree on the F:B ratio.
pub use crate::price::BWD_COMPUTE_FACTOR;

/// Shape of a 1F1B run: `p` pipeline ranks, `v` virtual chunks per rank,
/// `m` microbatches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleSpec {
    pub pp: usize,
    pub virtual_chunks: usize,
    pub microbatches: usize,
}

/// One slot in a rank's static op list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipeOp {
    /// Forward microbatch `mb` through local chunk `chunk`.
    Forward { chunk: usize, mb: usize },
    /// Backward microbatch `mb` through local chunk `chunk`.
    Backward { chunk: usize, mb: usize },
}

impl ScheduleSpec {
    pub fn new(
        pp: usize,
        virtual_chunks: usize,
        microbatches: usize,
    ) -> Result<Self, PipelineError> {
        if pp == 0 || virtual_chunks == 0 || microbatches == 0 {
            return Err(PipelineError::Unsupported(
                "schedule needs pp >= 1, virtual chunks >= 1 and microbatches >= 1",
            ));
        }
        if virtual_chunks > 1 && !microbatches.is_multiple_of(pp) {
            return Err(PipelineError::Unsupported(
                "interleaved 1F1B requires microbatches divisible by pp",
            ));
        }
        Ok(Self {
            pp,
            virtual_chunks,
            microbatches,
        })
    }

    /// Total virtual stages `p·v`.
    pub fn num_virtual_stages(&self) -> usize {
        self.pp * self.virtual_chunks
    }

    /// Rank owning virtual stage `g`.
    pub fn stage_rank(&self, g: usize) -> usize {
        g % self.pp
    }

    /// Virtual stage of local `chunk` on `rank`.
    pub fn virtual_stage(&self, rank: usize, chunk: usize) -> usize {
        chunk * self.pp + rank
    }

    /// Analytic 1F1B bubble fraction `(p-1)/(v·m + p-1)`: interleaving
    /// shrinks the fill/drain ramps by `v` relative to the steady state.
    pub fn analytic_bubble(&self) -> f64 {
        let p = self.pp as f64;
        (p - 1.0) / (self.virtual_chunks as f64 * self.microbatches as f64 + p - 1.0)
    }

    /// The `k`-th forward issued by any rank under the interleaved
    /// schedule: walk chunk-major blocks of `p` microbatches.
    fn fwd_id(&self, k: usize) -> (usize, usize) {
        let (p, v) = (self.pp, self.virtual_chunks);
        let group = k % (p * v);
        (group / p, (k / (p * v)) * p + k % p)
    }

    /// The `k`-th backward: chunks drain in reverse order.
    fn bwd_id(&self, k: usize) -> (usize, usize) {
        let (p, v) = (self.pp, self.virtual_chunks);
        let group = k % (p * v);
        (v - 1 - group / p, (k / (p * v)) * p + k % p)
    }

    /// The static 1F1B op list for `rank`: warmup forwards, steady
    /// alternating F/B, cooldown backwards.
    pub fn rank_ops(&self, rank: usize) -> Vec<PipeOp> {
        assert!(rank < self.pp, "rank {rank} out of pipeline of {}", self.pp);
        let (p, v, m) = (self.pp, self.virtual_chunks, self.microbatches);
        let total = m * v;
        let warmup = if v == 1 {
            m.min(p - 1 - rank)
        } else if m == p {
            total
        } else {
            total.min((p - rank - 1) * 2 + (v - 1) * p)
        };
        let mut ops = Vec::with_capacity(2 * total);
        for k in 0..warmup {
            let (chunk, mb) = self.fwd_id(k);
            ops.push(PipeOp::Forward { chunk, mb });
        }
        for k in 0..total - warmup {
            let (chunk, mb) = self.fwd_id(warmup + k);
            ops.push(PipeOp::Forward { chunk, mb });
            let (chunk, mb) = self.bwd_id(k);
            ops.push(PipeOp::Backward { chunk, mb });
        }
        for k in total - warmup..total {
            let (chunk, mb) = self.bwd_id(k);
            ops.push(PipeOp::Backward { chunk, mb });
        }
        ops
    }
}

/// One virtual-stage chunk a rank can run: a deterministic single-rank
/// forward plus its analytic kernel cost.
pub trait StageChunk {
    /// Deterministic forward of one microbatch (must not depend on the
    /// schedule — that is what makes pipelining bitwise-safe).
    fn forward(&self, input: &Tensor) -> Tensor;
    /// Analytic forward flops for a microbatch of `tokens` rows.
    fn fwd_flops(&self, tokens: usize) -> f64;
    /// Hidden width of the activations crossing this chunk's boundaries.
    fn hidden(&self) -> usize;
}

/// A contiguous slice of MoE layers as a pipeline stage chunk.
pub struct MoeStageChunk {
    pub layers: Vec<MoeLayer>,
    hidden: usize,
    flops_per_token_layer: f64,
}

impl MoeStageChunk {
    /// Build global layers `[first, first + count)` of a model whose layer
    /// `l` is seeded `seed + l·7001` — the convention shared with the
    /// trainer, so any (pp, v) split of the same model produces identical
    /// per-stage weights.
    pub fn new(cfg: &MoeModelConfig, first_layer: usize, count: usize, seed: u64) -> Self {
        let layers = (first_layer..first_layer + count)
            .map(|l| MoeLayer::single_rank(cfg, seed.wrapping_add(l as u64 * 7001)))
            .collect();
        // Router gemm + top-k expert FFN (two matmuls each way).
        let flops_per_token_layer = 2.0 * (cfg.hidden * cfg.num_experts) as f64
            + cfg.top_k as f64 * 4.0 * (cfg.hidden * cfg.ffn_hidden) as f64;
        Self {
            layers,
            hidden: cfg.hidden,
            flops_per_token_layer,
        }
    }
}

impl StageChunk for MoeStageChunk {
    fn forward(&self, input: &Tensor) -> Tensor {
        let mut act = self.layers[0].forward(input);
        for layer in &self.layers[1..] {
            act = layer.forward(&act);
        }
        act
    }

    fn fwd_flops(&self, tokens: usize) -> f64 {
        self.layers.len() as f64 * tokens as f64 * self.flops_per_token_layer
    }

    fn hidden(&self) -> usize {
        self.hidden
    }
}

fn fwd_tag(stage: usize, mb: usize) -> u64 {
    ((stage as u64) << 32) | mb as u64
}

fn bwd_tag(stage: usize, mb: usize) -> u64 {
    (1 << 63) | ((stage as u64) << 32) | mb as u64
}

/// Execute this rank's 1F1B op list over the pipeline communicator.
///
/// `chunks[c]` is the rank's `c`-th virtual chunk (virtual stage
/// `c·p + rank`); `inputs` holds the `m` microbatch inputs and is read
/// only by the owner of virtual stage 0 (rank 0). Returns the last
/// stage's outputs in microbatch order — empty on every other rank.
///
/// Clock discipline (PR-1 span exactness): compute charges under
/// `pp_fwd`/`pp_bwd`, transfer time under `pp_send` on the sender, and
/// pipeline stalls surface as `sync_wait:pp_recv`, so
/// `Σ buckets == clock.now()` holds exactly on every rank.
pub fn run_1f1b(
    spec: &ScheduleSpec,
    chunks: &[&dyn StageChunk],
    inputs: &[Tensor],
    pp: &Communicator,
    clock: &mut SimClock,
) -> Result<Vec<Tensor>, PipelineError> {
    let rank = pp.rank();
    if pp.size() != spec.pp {
        return Err(PipelineError::Unsupported(
            "pipeline communicator size must equal spec.pp",
        ));
    }
    if chunks.len() != spec.virtual_chunks {
        return Err(PipelineError::Unsupported(
            "rank must hold exactly spec.virtual_chunks chunks",
        ));
    }
    if rank == 0 && inputs.len() != spec.microbatches {
        return Err(PipelineError::Unsupported(
            "rank 0 must hold one input per microbatch",
        ));
    }
    let (p, v, m) = (spec.pp, spec.virtual_chunks, spec.microbatches);
    let last = p * v - 1;
    let mut stash = P2pStash::new();
    // Forward compute time per (chunk, mb), consumed by the matching
    // backward; rows per (chunk, mb) for the gradient payload shape.
    let mut fwd_time = vec![vec![0.0f64; m]; v];
    let mut fwd_rows = vec![vec![0usize; m]; v];
    let mut outputs: Vec<Option<Tensor>> = (0..m).map(|_| None).collect();

    for op in spec.rank_ops(rank) {
        match op {
            PipeOp::Forward { chunk, mb } => {
                let g = spec.virtual_stage(rank, chunk);
                let hidden = chunks[chunk].hidden();
                let input = if g == 0 {
                    inputs[mb].clone()
                } else {
                    let src = spec.stage_rank(g - 1);
                    let data: Vec<f32> = pp.recv_p2p(src, fwd_tag(g, mb), &mut stash, clock)?;
                    clock.commit("pp_recv");
                    let rows = data.len() / hidden;
                    Tensor::from_vec(rows, hidden, data)
                };
                let rows = input.rows();
                let out = chunks[chunk].forward(&input);
                let t = pp.cost().compute_time(chunks[chunk].fwd_flops(rows));
                clock.charge("pp_fwd", t);
                fwd_time[chunk][mb] = t;
                fwd_rows[chunk][mb] = rows;
                if g == last {
                    outputs[mb] = Some(out);
                } else {
                    let dst = spec.stage_rank(g + 1);
                    pp.send_p2p(dst, fwd_tag(g + 1, mb), out.as_slice().to_vec(), clock)?;
                    clock.commit("pp_send");
                }
            }
            PipeOp::Backward { chunk, mb } => {
                let g = spec.virtual_stage(rank, chunk);
                let hidden = chunks[chunk].hidden();
                if g != last {
                    // Gradient of this stage's output, from the stage above.
                    let src = spec.stage_rank(g + 1);
                    let _grad: Vec<f32> = pp.recv_p2p(src, bwd_tag(g, mb), &mut stash, clock)?;
                    clock.commit("pp_recv");
                }
                clock.charge("pp_bwd", BWD_COMPUTE_FACTOR * fwd_time[chunk][mb]);
                if g != 0 {
                    // Analytic gradient payload: only its shape (and the
                    // bytes on the wire) matter to the simulation.
                    let dst = spec.stage_rank(g - 1);
                    let grad = vec![1.0f32; fwd_rows[chunk][mb] * hidden];
                    pp.send_p2p(dst, bwd_tag(g - 1, mb), grad, clock)?;
                    clock.commit("pp_send");
                }
            }
        }
    }
    debug_assert!(stash.is_empty(), "schedule left unmatched p2p messages");
    Ok(outputs.into_iter().flatten().collect())
}

/// The unpipelined reference: run every virtual stage of the model in
/// order on one rank, no clock. Bit-identical to what [`run_1f1b`]'s last
/// stage emits, because the schedule never changes any chunk's input.
pub fn reference_forward(stages: &[&dyn StageChunk], inputs: &[Tensor]) -> Vec<Tensor> {
    inputs
        .iter()
        .map(|input| {
            let mut act = input.clone();
            for stage in stages {
                act = stage.forward(&act);
            }
            act
        })
        .collect()
}

/// Work (non-wait, non-retry) time accounted on a clock. Call after the
/// final `commit` — pending entries are not included.
pub fn rank_work(clock: &SimClock) -> f64 {
    clock
        .buckets()
        .iter()
        .filter(|(label, _)| !label.starts_with("sync_wait:") && !label.starts_with("fault_retry:"))
        .map(|(_, t)| t)
        .sum()
}

/// Measured bubble fraction over per-rank `(clock.now(), work)` pairs:
/// the idle share of the `p · makespan` area.
pub fn bubble_fraction(totals: &[(f64, f64)]) -> f64 {
    let makespan = totals.iter().map(|(now, _)| *now).fold(0.0, f64::max);
    if makespan <= 0.0 {
        return 0.0;
    }
    let work: f64 = totals.iter().map(|(_, w)| *w).sum();
    1.0 - work / (totals.len() as f64 * makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_collectives::SimCluster;
    use xmoe_topology::{ClusterTopology, CongestionModel, CostModel, MachineSpec};

    fn cfg() -> MoeModelConfig {
        MoeModelConfig::custom("sched-demo", 16, 16, 8, 8, 2, 4)
    }

    /// A Frontier-shaped cluster whose GEMMs are slow enough that the tiny
    /// test model's compute dominates p2p latency — the regime the analytic
    /// bubble form describes (real stages are milliseconds of compute per
    /// microsecond of activation transfer; the test model is not).
    fn slow_compute_cluster(n: usize) -> SimCluster {
        let mut spec = MachineSpec::frontier();
        spec.peak_flops = 1e8;
        spec.gemm_efficiency = 1.0;
        let topo = ClusterTopology::new(spec, n);
        SimCluster::new(CostModel::new(topo).with_congestion(CongestionModel::none()))
    }

    fn mb_inputs(m: usize, rows: usize, hidden: usize) -> Vec<Tensor> {
        (0..m)
            .map(|i| Tensor::rand_uniform(rows, hidden, 1.0, 100 + i as u64))
            .collect()
    }

    fn stage_chunks(cfg: &MoeModelConfig, spec: &ScheduleSpec, rank: usize) -> Vec<MoeStageChunk> {
        let layers_per_stage = cfg.num_layers / spec.num_virtual_stages();
        (0..spec.virtual_chunks)
            .map(|c| {
                let g = spec.virtual_stage(rank, c);
                MoeStageChunk::new(cfg, g * layers_per_stage, layers_per_stage, 9)
            })
            .collect()
    }

    fn run_fold(pp: usize, v: usize, m: usize) -> (Vec<Tensor>, Vec<(f64, f64)>) {
        let cfg = cfg();
        let spec = ScheduleSpec::new(pp, v, m).unwrap();
        let inputs = mb_inputs(m, 8, cfg.hidden);
        let out = {
            let (cfg, spec, inputs) = (&cfg, &spec, &inputs);
            slow_compute_cluster(pp).run(move |ctx| {
                let chunks = stage_chunks(cfg, spec, ctx.rank);
                let refs: Vec<&dyn StageChunk> =
                    chunks.iter().map(|c| c as &dyn StageChunk).collect();
                let outs = run_1f1b(spec, &refs, inputs, &ctx.world, &mut ctx.clock).unwrap();
                (outs, ctx.clock.now(), rank_work(&ctx.clock))
            })
        };
        let totals: Vec<(f64, f64)> = out.iter().map(|(_, now, work)| (*now, *work)).collect();
        let outputs = out.into_iter().map(|(o, ..)| o).next_back().unwrap();
        (outputs, totals)
    }

    fn reference(m: usize) -> Vec<Tensor> {
        let cfg = cfg();
        let inputs = mb_inputs(m, 8, cfg.hidden);
        let stages: Vec<MoeStageChunk> = (0..cfg.num_layers)
            .map(|l| MoeStageChunk::new(&cfg, l, 1, 9))
            .collect();
        let refs: Vec<&dyn StageChunk> = stages.iter().map(|c| c as &dyn StageChunk).collect();
        reference_forward(&refs, &inputs)
    }

    #[test]
    fn spec_rejects_degenerate_shapes() {
        assert!(ScheduleSpec::new(0, 1, 1).is_err());
        assert!(ScheduleSpec::new(2, 1, 0).is_err());
        assert!(
            ScheduleSpec::new(2, 2, 3).is_err(),
            "interleaved needs m % p == 0"
        );
        assert!(ScheduleSpec::new(2, 2, 4).is_ok());
    }

    #[test]
    fn rank_ops_cover_every_microbatch_once_each_way() {
        for (p, v, m) in [(1, 1, 3), (2, 1, 5), (4, 1, 8), (2, 2, 4), (4, 2, 8)] {
            let spec = ScheduleSpec::new(p, v, m).unwrap();
            for rank in 0..p {
                let ops = spec.rank_ops(rank);
                let fwd = ops
                    .iter()
                    .filter(|o| matches!(o, PipeOp::Forward { .. }))
                    .count();
                let bwd = ops.len() - fwd;
                assert_eq!(fwd, m * v, "({p},{v},{m}) rank {rank}");
                assert_eq!(bwd, m * v, "({p},{v},{m}) rank {rank}");
            }
        }
    }

    #[test]
    fn non_interleaved_matches_unpipelined_reference_bitwise() {
        let (got, _) = run_fold(2, 1, 4);
        let want = reference(4);
        assert_eq!(got.len(), 4);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_slice(), w.as_slice(), "bitwise equality required");
        }
    }

    #[test]
    fn interleaved_matches_unpipelined_reference_bitwise() {
        let (got, _) = run_fold(2, 2, 4);
        let want = reference(4);
        assert_eq!(got.len(), 4);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_slice(), w.as_slice(), "bitwise equality required");
        }
    }

    #[test]
    fn single_stage_pipeline_is_the_reference() {
        let (got, totals) = run_fold(1, 1, 3);
        let want = reference(3);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_slice(), w.as_slice());
        }
        // p = 1 has no ramp: bubble must be ~0.
        assert!(bubble_fraction(&totals) < 1e-9);
    }

    #[test]
    fn measured_bubble_tracks_analytic_form() {
        for (p, v, m) in [(2, 1, 8), (4, 1, 8), (2, 2, 8)] {
            let spec = ScheduleSpec::new(p, v, m).unwrap();
            let (_, totals) = run_fold(p, v, m);
            let measured = bubble_fraction(&totals);
            let analytic = spec.analytic_bubble();
            assert!(
                (measured - analytic).abs() <= 0.10 * analytic.max(0.05),
                "({p},{v},{m}): measured {measured:.4} vs analytic {analytic:.4}"
            );
        }
    }
}
