//! Metric name tables. `BENCHMARK.json` is the contract; these tables are
//! its mirror inside the program (a unit test holds them equal). Every
//! workload reports every metric: a per-layer metric that has no meaning
//! on a workload reads 0 there (see the applicability table in README.md).

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// End-to-end metrics: meaningful and non-zero on all six workloads. The
/// bounds are three times the worst ten-seed spread measured on the 2-core
/// box the benchmark was sized on (see README.md).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "tokens_per_s",
        unit: "tok/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of the traced run, grouped by the module they time.
pub const PER_LAYER: &[PerLayer] = &[
    // The estimator's own diagnostics.
    m("bench.units", "count", Higher),
    m("bench.unit_ms_fastest", "ms", Lower),
    m("bench.unit_ms_p50", "ms", Lower),
    m("bench.unit_ms_tail", "ms", Lower),
    m("bench.unit_tail_pct", "%", Higher),
    m("bench.trace_overhead_frac", "frac", Lower),
    m("bench.spans_dropped", "count", Lower),
    // Workload-level numbers that exist on some workloads only (the
    // issue's end-to-end table; kept under their issue names).
    m("fwd_tokens_per_s", "tok/s", Higher),
    m("train_tokens_per_s", "tok/s", Higher),
    m("requests_per_s", "1/s", Higher),
    m("sim_step_ms", "ms", Lower),
    m("sim_ep_step_ms", "ms", Lower),
    m("sim_overlap_step_ms", "ms", Lower),
    m("inter_node_mb_per_step", "MB", Lower),
    m("allocs_per_step", "count", Lower),
    m("sim_p99_ms", "ms", Lower),
    m("sim_goodput_tps", "tok/s", Higher),
    m("off_node_mb", "MB", Lower),
    // tensor
    m("tensor.ops.matmul_gflops", "GFLOP/s", Higher),
    m("tensor.ops.matmul_tb_gflops", "GFLOP/s", Higher),
    m("tensor.ops.topk_ms", "ms", Lower),
    m("tensor.par.gemm_grouped_ms", "ms", Lower),
    m("tensor.par.gemm_grouped_tb_ms", "ms", Lower),
    m("tensor.par.gemm_grouped_ta_ms", "ms", Lower),
    m("tensor.par.lanes", "count", Higher),
    m("tensor.routing.gather_ms", "ms", Lower),
    m("tensor.routing.scatter_ms", "ms", Lower),
    m("tensor.routing.gather_gbs", "GB/s", Higher),
    m("tensor.pool.misses_per_step", "count", Lower),
    m("tensor.pool.retained_mb", "MB", Lower),
    m("tensor.alloc.untracked_allocs_per_step", "count", Lower),
    // topology
    m("topology.cost.alltoallv_price_us", "us", Lower),
    m("topology.cost.sparse_exchange_price_us", "us", Lower),
    m("topology.placement.optimize_ms", "ms", Lower),
    m("topology.placement.cost_us", "us", Lower),
    // collectives
    m("collectives.runtime.spawn_join_ms", "ms", Lower),
    m("collectives.comm.barrier_us", "us", Lower),
    m("collectives.comm.all_to_all_v_us", "us", Lower),
    m("collectives.comm.all_reduce_us", "us", Lower),
    m("collectives.comm.collectives_per_step", "count", Lower),
    m("collectives.comm.bytes_per_step", "B", Lower),
    // core
    m("core.gating.gate_ms", "ms", Lower),
    m("core.pft.construct_ms", "ms", Lower),
    m("core.expert.forward_segments_ms", "ms", Lower),
    m("core.pipeline.pft_forward_ms", "ms", Lower),
    m("core.pipeline.pft_glue_ms", "ms", Lower),
    m("core.pipeline.routing_share", "frac", Lower),
    m("core.pipeline.gemm_share", "frac", Lower),
    m("core.pipeline.dense_forward_ms", "ms", Lower),
    m("core.pipeline.pft_vs_dense_x", "x", Higher),
    m("core.pipeline.ep_forward_ms", "ms", Lower),
    m("core.pipeline.ep_rank_skew_ms", "ms", Lower),
    m("core.rbd.forward_ms", "ms", Lower),
    m("core.rbd.redundancy_rate", "frac", Higher),
    m("core.rbd.inter_node_reduction_x", "x", Higher),
    // train
    m("train.data.batch_us", "us", Lower),
    m("train.moe_layer.forward_ms", "ms", Lower),
    m("train.moe_layer.backward_ms", "ms", Lower),
    m("train.dist.forward_backward_ms", "ms", Lower),
    m("train.dist.sync_grads_ms", "ms", Lower),
    m("train.dist.apply_update_ms", "ms", Lower),
    m("train.dist.reduce_loss_ms", "ms", Lower),
    m("train.dist.rank_skew_ms", "ms", Lower),
    // serve
    m("serve.traffic.trace_ms", "ms", Lower),
    m("serve.engine.new_ms", "ms", Lower),
    m("serve.engine.run_s", "s", Lower),
    m("serve.engine.steps_per_s", "1/s", Higher),
    m("serve.engine.steps", "count", Lower),
    m("serve.engine.resolves", "count", Lower),
    m("serve.engine.migrated_experts", "count", Lower),
    m("serve.scheduler.step_us", "us", Lower),
    m("serve.scheduler.preemptions", "count", Lower),
    m("serve.metrics.deadline_miss_rate", "frac", Lower),
    m("serve.metrics.sim_p50_ms", "ms", Lower),
    // host
    m("host.cpu_s_per_unit", "s", Lower),
    m("host.sys_cpu_frac", "frac", Lower),
    m("host.vol_ctx_switches_per_unit", "count", Lower),
    // simulated clock, per stage label of `StepReport::from_ranks`
    m("sim.gating_us", "us", Lower),
    m("sim.buffer_dispatch_us", "us", Lower),
    m("sim.dispatch_a2a_meta_us", "us", Lower),
    m("sim.dispatch_a2a_us", "us", Lower),
    m("sim.expert_us", "us", Lower),
    m("sim.combine_a2a_us", "us", Lower),
    m("sim.buffer_combine_us", "us", Lower),
    m("sim.dispatch_a2a_inter_us", "us", Lower),
    m("sim.dispatch_a2a_intra_us", "us", Lower),
    m("sim.combine_a2a_inter_us", "us", Lower),
    m("sim.combine_a2a_intra_us", "us", Lower),
    m("sim.rbd_replica_reconstruct_us", "us", Lower),
    m("sim.bwd_dispatch_a2a_us", "us", Lower),
    m("sim.bwd_combine_a2a_us", "us", Lower),
    m("sim.grad_allreduce_us", "us", Lower),
    m("sim.loss_allreduce_us", "us", Lower),
    m("sim.sync_wait_us", "us", Lower),
];

/// The `sim.<stage>_us` name of a `StepReport` stage label, if it has one.
pub fn sim_stage_metric(label: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|p| p.name)
        .find(|n| n.strip_prefix("sim.").and_then(|s| s.strip_suffix("_us")) == Some(label))
}

/// Per-layer metrics that depend on the inputs only — simulated time, bytes,
/// counts — and so must repeat bit for bit for a given seed (`check` holds
/// two traced runs to that). A change may claim a gain on these as counts.
pub fn repeats_exactly(name: &str) -> bool {
    const EXACT: &[&str] = &[
        "inter_node_mb_per_step",
        "off_node_mb",
        "allocs_per_step",
        "tensor.pool.misses_per_step",
        "tensor.pool.retained_mb",
        "collectives.comm.collectives_per_step",
        "collectives.comm.bytes_per_step",
        "core.rbd.redundancy_rate",
        "core.rbd.inter_node_reduction_x",
        "serve.engine.steps",
        "serve.engine.resolves",
        "serve.engine.migrated_experts",
        "serve.scheduler.preemptions",
        "serve.metrics.deadline_miss_rate",
        "serve.metrics.sim_p50_ms",
    ];
    name.starts_with("sim.") || name.starts_with("sim_") || EXACT.contains(&name)
}

pub fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|p| p.name == name)
}

/// The six workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_fine_ep2",
        "full 2-rank fine-grained train step (gate, PFT, a2a, expert fwd/bwd, grad sync, Adam): glue/overhead-bound, where runtime and pooling work shows",
    ),
    (
        "layer_fine_1r",
        "one rank, expert-specialized shape (64 experts, top-8): gating/top-k, PFT build, gather/scatter and many small grouped GEMMs dominate; no collectives",
    ),
    (
        "layer_coarse_1r",
        "same code and FLOPs at the conventional shape (8 experts, top-1): few large GEMMs, routing share ~8x smaller; a gain bought at the other shape's cost shows",
    ),
    (
        "dispatch_tiny_ep2",
        "2-rank padding-free forward at tiny dims: GEMM negligible, so mailbox rendezvous, route build, a2a and per-collective pricing do the work",
    ),
    (
        "rbd_sim_2x8",
        "16 ranks on 2 simulated nodes, flat EP vs RBD vs RBD-overlap on identical tokens: the paper-facing simulated step time and inter-node bytes",
    ),
    (
        "serve_skew_drift",
        "serving trace with skewed, drifting topics under optimized placement: scheduler, KV ledger, placement re-solves and pooled forward, single-threaded",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn names<'a>(v: &'a Json, key: &str) -> Vec<&'a Json> {
        v.get(key).and_then(Json::as_arr).unwrap().iter().collect()
    }

    /// `BENCHMARK.json` and these tables must say the same thing.
    #[test]
    fn tables_mirror_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = names(&v, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(j, "name"), *name);
            assert_eq!(field(j, "why"), *why);
            assert!(why.len() <= 200, "{name}: why too long");
        }
        let e2e = names(&v, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), e.name);
            assert_eq!(field(j, "unit"), e.unit);
            assert_eq!(field(j, "better"), e.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(e.bound));
            assert!(e.bound <= 0.25);
        }
        let layers = names(&v, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, p) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), p.name);
            assert_eq!(field(j, "unit"), p.unit);
            assert_eq!(field(j, "better"), p.better.as_str());
            assert!(p.unit.len() <= 16 && p.name.len() <= 64);
        }
        assert_eq!(
            v.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn names_are_unique_and_stage_lookup_works() {
        let mut all: Vec<&str> = PER_LAYER.iter().map(|p| p.name).collect();
        all.extend(END_TO_END.iter().map(|e| e.name));
        all.extend(WORKLOADS.iter().map(|w| w.0));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a metric or workload name is used twice");
        assert_eq!(
            sim_stage_metric("dispatch_a2a"),
            Some("sim.dispatch_a2a_us")
        );
        assert_eq!(sim_stage_metric("sync_wait"), Some("sim.sync_wait_us"));
        assert_eq!(sim_stage_metric("no_such_stage"), None);
        assert!(repeats_exactly("sim_step_ms") && repeats_exactly("sim.expert_us"));
        assert!(repeats_exactly("allocs_per_step") && !repeats_exactly("core.gating.gate_ms"));
        assert!(PER_LAYER.iter().filter(|p| repeats_exactly(p.name)).count() >= 30);
    }
}
