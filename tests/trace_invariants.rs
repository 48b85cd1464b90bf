//! Cross-pipeline tracing invariants (tier-1).
//!
//! 1. Exactness: after a forward pass through any of the four distributed
//!    pipelines, every rank's spans — work buckets plus `sync_wait:*`
//!    buckets — sum to exactly `clock.now()` (within 1e-9). The span
//!    recorder makes this true by construction; these tests pin it.
//! 2. Golden exporter check: the Chrome trace-event JSON is syntactically
//!    valid and carries all six Fig-11 stage labels on every rank's track.
//! 3. One price list: on balanced routing the live Fig-11 stages equal the
//!    analytic model's, and the train step charges what the pipeline does.

use xmoe::collectives::{trace, RankTrace, SimClock, SimCluster, StepReport};
use xmoe::core::config::{DType, MoeModelConfig, ParallelConfig};
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, Router};
use xmoe::core::memory::MoeSystem;
use xmoe::core::perf::{PerfModel, PerfOpts};
use xmoe::core::pipeline::{
    BlockSparsePipeline, DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline,
    Pipeline, RbdPipeline,
};
use xmoe::core::rbd::{PilotPolicy, RbdComms};
use xmoe::tensor::{DetRng, Tensor, Workspace};
use xmoe::train::{DistMoe, DistMoeScratch, TrainableMoe};

const WORLD: usize = 8;
const S: usize = 192;
const H: usize = 48;
const F: usize = 24;
const E: usize = 16;
const K: usize = 4;

fn run_pipeline(which: &'static str) -> Vec<RankTrace> {
    let router = Router::new(H, E, K, 0xBEE);
    let spec = MoeLayerSpec::new(E, 10_000);
    let router = &router;
    let spec = &spec;
    SimCluster::frontier(WORLD).run(move |ctx| {
        let shard = ExpertShard::for_rank(ctx.rank, WORLD, E, H, F, 0xBEF);
        let tokens = Tensor::rand_uniform(S, H, 1.0, 0xBF0 + ctx.rank as u64);
        let pipe: Box<dyn Pipeline> = match which {
            "dense" => Box::new(DensePipeline {
                order: DenseDropOrder::TokenOrder,
            }),
            "padding_free" => Box::new(PaddingFreePipeline),
            "block_sparse" => Box::new(BlockSparsePipeline { block: 64 }),
            "rbd" => Box::new(RbdPipeline {
                policy: PilotPolicy::Random,
            }),
            other => panic!("unknown pipeline {other}"),
        };
        // Only RBD pays for (and traces) the node-local split.
        let hier = (which == "rbd").then(|| RbdComms::create(&ctx.world, &mut ctx.clock).unwrap());
        let mut rng = DetRng::new(0xBF1 + ctx.rank as u64);
        let mut ex = match &hier {
            Some(hier) => ExecCtx::hier(hier, &mut ctx.clock).with_rng(&mut rng),
            None => ExecCtx::ep(&ctx.world, &mut ctx.clock),
        };
        pipe.forward(&tokens, router, &shard, spec, &mut ex)
            .unwrap();
        RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic())
    })
}

fn assert_spans_account_for_all_time(traces: &[RankTrace], pipeline_name: &str) {
    assert_eq!(traces.len(), WORLD);
    for tr in traces {
        let span_sum: f64 = tr.spans.iter().map(|s| s.dur).sum();
        assert!(
            (span_sum - tr.end).abs() < 1e-9,
            "{pipeline_name} rank {}: spans sum to {span_sum} but clock says {}",
            tr.rank,
            tr.end
        );
        let bucket_sum: f64 = tr.bucket_totals().iter().map(|(_, v)| v).sum();
        assert!(
            (bucket_sum - tr.end).abs() < 1e-9,
            "{pipeline_name} rank {}: buckets sum to {bucket_sum} but clock says {}",
            tr.rank,
            tr.end
        );
        assert!(
            tr.end > 0.0,
            "{pipeline_name} rank {} advanced no time",
            tr.rank
        );
        // Spans must be non-overlapping and cover [0, end] back to back.
        let mut cursor = 0.0f64;
        for s in &tr.spans {
            assert!(
                (s.start - cursor).abs() < 1e-9,
                "{pipeline_name} rank {}: gap before span {:?} at {cursor}",
                tr.rank,
                s.label
            );
            cursor = s.start + s.dur;
        }
    }
}

#[test]
fn dense_pipeline_spans_sum_to_clock() {
    assert_spans_account_for_all_time(&run_pipeline("dense"), "dense");
}

#[test]
fn padding_free_pipeline_spans_sum_to_clock() {
    assert_spans_account_for_all_time(&run_pipeline("padding_free"), "padding_free");
}

#[test]
fn block_sparse_pipeline_spans_sum_to_clock() {
    assert_spans_account_for_all_time(&run_pipeline("block_sparse"), "block_sparse");
}

#[test]
fn rbd_pipeline_spans_sum_to_clock() {
    assert_spans_account_for_all_time(&run_pipeline("rbd"), "rbd");
}

/// Minimal JSON syntax walker: validates balanced structure, strings and
/// literals without pulling in a parser dependency. Rejects trailing junk.
fn check_json(s: &str) {
    let b = s.as_bytes();
    let mut i = 0usize;
    let mut stack: Vec<u8> = Vec::new();
    let mut seen_value = false;
    while i < b.len() {
        match b[i] {
            b'{' | b'[' => {
                stack.push(b[i]);
                i += 1;
            }
            b'}' => {
                assert_eq!(stack.pop(), Some(b'{'), "unbalanced }} at byte {i}");
                seen_value = true;
                i += 1;
            }
            b']' => {
                assert_eq!(stack.pop(), Some(b'['), "unbalanced ] at byte {i}");
                seen_value = true;
                i += 1;
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' {
                        i += 1;
                        assert!(i < b.len(), "dangling escape");
                        assert!(
                            matches!(
                                b[i],
                                b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' | b'u'
                            ),
                            "bad escape \\{} at byte {i}",
                            b[i] as char
                        );
                    }
                    assert!(b[i] >= 0x20, "unescaped control char in string at byte {i}");
                    i += 1;
                }
                assert!(i < b.len(), "unterminated string");
                seen_value = true;
                i += 1;
            }
            b',' | b':' => {
                assert!(!stack.is_empty(), "separator outside container at byte {i}");
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            _ => {
                // number / true / false / null token
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric()
                        || matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    i += 1;
                }
                let tok = &s[start..i];
                assert!(
                    tok == "true" || tok == "false" || tok == "null" || tok.parse::<f64>().is_ok(),
                    "bad JSON token {tok:?} at byte {start}"
                );
                seen_value = true;
            }
        }
    }
    assert!(stack.is_empty(), "unbalanced containers at end of input");
    assert!(seen_value, "empty JSON document");
}

/// Overlap extension of the exactness invariant: inside a region, spans of
/// each track are back-to-back from the region's opening time and sum
/// exactly to the track's cursor; the region's wall contribution is the max
/// over tracks; the serial spans plus that wall reproduce `clock.now()`.
#[test]
fn overlap_region_per_track_spans_sum_exactly_and_wall_is_max() {
    let router = Router::new(H, E, K, 0xBEE);
    let spec = MoeLayerSpec::new(E, 10_000);
    let router = &router;
    let spec = &spec;
    let traces = SimCluster::frontier(WORLD).run(move |ctx| {
        let shard = ExpertShard::for_rank(ctx.rank, WORLD, E, H, F, 0xBEF);
        let tokens = Tensor::rand_uniform(S, H, 1.0, 0xBF0 + ctx.rank as u64);
        let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock).with_overlap(2);
        PaddingFreePipeline
            .forward(&tokens, router, &shard, spec, &mut ex)
            .unwrap();
        RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic())
    });

    let mut hidden_somewhere = false;
    for tr in &traces {
        let tracked: Vec<_> = tr.spans.iter().filter(|s| s.track.is_some()).collect();
        assert!(!tracked.is_empty(), "rank {}: no overlap spans", tr.rank);
        let t0 = tracked
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        let mut names: Vec<&str> = Vec::new();
        for s in &tracked {
            let name = s.track.as_deref().unwrap();
            if !names.contains(&name) {
                names.push(name);
            }
        }
        assert!(names.len() >= 2, "rank {}: only tracks {names:?}", tr.rank);

        let mut wall_end = t0;
        let mut work_total = 0.0f64;
        for name in &names {
            let mut cursor = t0;
            let mut sum = 0.0f64;
            for s in tracked.iter().filter(|s| s.track.as_deref() == Some(name)) {
                assert!(
                    (s.start - cursor).abs() < 1e-9,
                    "rank {} track {name}: gap before {:?} at {cursor}",
                    tr.rank,
                    s.label
                );
                cursor = s.start + s.dur;
                sum += s.dur;
            }
            // Per-track spans sum exactly to the track's cursor.
            assert!(
                (sum - (cursor - t0)).abs() < 1e-9,
                "rank {} track {name}: spans sum {sum} vs cursor {}",
                tr.rank,
                cursor - t0
            );
            wall_end = wall_end.max(cursor);
            work_total += sum;
        }
        // Region wall = max over tracks: serial spans + the region wall
        // reproduce the rank's final clock exactly.
        let serial_sum: f64 = tr
            .spans
            .iter()
            .filter(|s| s.track.is_none())
            .map(|s| s.dur)
            .sum();
        assert!(
            (serial_sum + (wall_end - t0) - tr.end).abs() < 1e-9,
            "rank {}: serial {serial_sum} + wall {} != clock {}",
            tr.rank,
            wall_end - t0,
            tr.end
        );
        // Work conservation: buckets keep the full per-track durations, so
        // the total meets or exceeds the wall; any excess is hidden time.
        assert!(work_total >= wall_end - t0 - 1e-9);
        if work_total > wall_end - t0 + 1e-9 {
            hidden_somewhere = true;
        }
    }
    assert!(
        hidden_somewhere,
        "overlap hid no time on any rank — the region degenerated to serial"
    );

    // Overlap-aware Chrome export: each rank's region tracks render as their
    // own named Perfetto rows next to the rank's serial track.
    let json = trace::chrome_trace(&traces);
    check_json(&json);
    for needle in ["[comm]", "[compute]", "[comm_out]"] {
        assert!(json.contains(needle), "chrome trace missing track {needle}");
    }
}

#[test]
fn chrome_trace_is_valid_json_with_all_stage_labels_per_rank() {
    let traces = run_pipeline("padding_free");
    let json = trace::chrome_trace(&traces);
    check_json(&json);
    assert!(json.contains("\"traceEvents\""));
    let stage_labels = [
        "gating",
        "buffer_dispatch",
        "dispatch_a2a",
        "expert",
        "combine_a2a",
        "buffer_combine",
    ];
    // Every rank has a named thread track and every stage label appears on it.
    for tr in &traces {
        let track = format!("\"tid\":{}", tr.rank);
        assert!(json.contains(&track), "no events for rank {}", tr.rank);
        for label in stage_labels {
            assert!(
                tr.spans.iter().any(|sp| !sp.wait && sp.label == label),
                "rank {} trace missing stage {label}",
                tr.rank
            );
            let event = format!("\"name\":\"{label}\"");
            assert!(json.contains(&event), "exporter dropped stage {label}");
        }
    }
}

/// The price list's oracle. On balanced routing — every expert receives
/// `S·k/E` rows from every rank, nothing is dropped — a live forward charges
/// each Fig-11 stage what the analytic model prices for the same shape on
/// the same cost model: X-MoE through the padding-free pipeline,
/// DeepSpeed-MoE through the dense one. The train step's `DistMoe` charges
/// the padding-free pipeline's compute stages to the bit.
#[test]
fn live_stages_equal_the_analytic_prices_on_balanced_routing() {
    let (s, h, f, e, k) = (64usize, 32usize, 16usize, 16usize, 4usize);
    // Token t scores experts t, t+1, .., t+k-1 (mod e), best first; the
    // identity gate passes the scores through as logits.
    let tokens = Tensor::from_fn(s, h, |t, c| {
        let j = (c + e - t % e) % e;
        if c < e && j < k {
            (k - j) as f32
        } else {
            0.0
        }
    });
    let gate = Tensor::from_fn(h, e, |r, c| if r == c { 1.0 } else { 0.0 });
    let router = Router::from_weight(gate.clone(), k);
    let mut cfg = MoeModelConfig::custom("balanced", s, h, f, e, k, 1);
    cfg.dtype = DType::F32;
    let spec = MoeLayerSpec::new(e, cfg.expert_capacity(s));
    let full = TrainableMoe::new(h, f, e, k, 100_000, DropPolicy::CapacityOnly, 7);
    for world in [4usize, 8, 16] {
        let cluster = SimCluster::frontier(world);
        let perf = PerfModel::new(cluster.cost().clone());
        let par = ParallelConfig::new(world, world);
        for sys in [MoeSystem::XMoe, MoeSystem::DsMoe] {
            let traces = cluster.run(|ctx| {
                let pipe: Box<dyn Pipeline> = match sys {
                    MoeSystem::XMoe => Box::new(PaddingFreePipeline),
                    _ => Box::new(DensePipeline {
                        order: DenseDropOrder::TokenOrder,
                    }),
                };
                let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 7);
                let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
                pipe.forward(&tokens, &router, &shard, &spec, &mut ex)
                    .unwrap();
                RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic())
            });
            let live = StepReport::from_ranks(&traces);
            let priced = perf.moe_stage_times(&cfg, sys, &par, &PerfOpts::default());
            for (label, want) in priced.entries() {
                let got = live.mean(label);
                assert!(
                    want > 0.0 && (got - want).abs() <= 1e-9 * want,
                    "{world} ranks, {sys:?} {label}: live {got} s, analytic {want} s"
                );
            }
        }
        let stages = ["gating", "buffer_dispatch", "expert", "buffer_combine"];
        cluster.run(|ctx| {
            let bits = |clock: &SimClock| stages.map(|l| clock.bucket(l).to_bits());
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 7);
            let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            PaddingFreePipeline
                .forward(&tokens, &router, &shard, &spec, &mut ex)
                .unwrap();
            let pipeline = bits(&ctx.clock);
            ctx.clock = SimClock::new();
            let mut layer = DistMoe::from_trainable(&full, ctx.rank, world);
            layer.gate = gate.clone();
            let (st, ws) = (&mut DistMoeScratch::default(), &mut Workspace::new());
            layer
                .forward(&tokens, st, ws, &ctx.world, &mut ctx.clock)
                .unwrap();
            assert_eq!(
                bits(&ctx.clock),
                pipeline,
                "{world} ranks, rank {}: DistMoe {stages:?}",
                ctx.rank
            );
        });
    }
}
