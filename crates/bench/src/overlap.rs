//! `bench overlap` — serial vs chunked dispatch–compute overlap.
//!
//! Runs the padding-free EP forward twice per configuration — once with the
//! serial context and once with `ExecCtx::with_overlap` — across a sweep of
//! top-k and routing skew, and reports the simulated step times side by side.
//! The sweep demonstrates where the K-way chunked pipeline pays off: the
//! overlap hides expert compute under the dispatch/combine all-to-alls, so the
//! win grows with top-k (more routed rows → more compute to hide) and with
//! skew (hot ranks have more compute than the collective's critical path).
//! Each chunked exchange also pays K extra `alpha * log2(n)` startup terms,
//! so tiny-compute configurations (low top-k) can come out behind — the table
//! shows both regimes.
//!
//! ## The scaled machine
//!
//! Paper-scale layers (h=4096-class, thousands of tokens per rank) are
//! bandwidth-dominated: the a2a serialises megabytes per rank while the
//! expert GEMM runs hundreds of microseconds. Executing those dims for real
//! on the host would take minutes per step, so the bench shrinks the layer
//! by a factor `DIM_SCALE` and divides the machine's bandwidth-class rates
//! (peak FLOP/s, link bandwidth, memory bandwidth) by the same factor while
//! keeping the per-message latencies at their physical values. Ratios between
//! bandwidth-bound stage times are exactly preserved; the fixed latencies are
//! where they would be at paper scale, so the startup-vs-hidden-compute
//! tradeoff is honest.
//!
//! Records: `config`, `serial_step_s`, `overlap_step_s`, `speedup`.
//! `--smoke` sweeps top-k=8 only.

use xmoe_collectives::SimCluster;
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::Router;
use xmoe_core::pipeline::{ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline};
use xmoe_tensor::Tensor;
use xmoe_topology::{ClusterTopology, CongestionModel, CostModel, MachineSpec};

use crate::fmt_time;
use crate::spine::{bench, each, int, print_records, tag, Check, Env, Record, Val};

bench!(overlap, "serial vs chunked dispatch-compute overlap");

const WORLD: usize = 8;
const TOKENS_PER_RANK: usize = 256;
const HIDDEN: usize = 64;
const FFN: usize = 256;
const EXPERTS: usize = 32;
const CHUNKS: usize = 2;
/// Shrink factor between paper-scale layer dims and the bench dims; the
/// machine's bandwidth-class rates are divided by the same factor.
const DIM_SCALE: f64 = 160.0;

/// Frontier with every bandwidth-class rate divided by [`DIM_SCALE`];
/// latencies stay physical (see module docs).
fn scaled_frontier() -> MachineSpec {
    let mut spec = MachineSpec::frontier();
    spec.name = "frontier/160";
    spec.intra_node_bw /= DIM_SCALE;
    spec.inter_node_bw /= DIM_SCALE;
    spec.peak_flops /= DIM_SCALE;
    spec.mem_bw /= DIM_SCALE;
    spec
}

/// Router whose weight is biased column-wise so low expert ids are hot
/// (exponential popularity profile, same idiom as `ablation_skew`).
fn skewed_router(h: usize, e: usize, k: usize, skew: f32, seed: u64) -> Router {
    let router = Router::new(h, e, k, seed);
    let mut w = router.weight.clone();
    for r in 0..w.rows() {
        for c in 0..w.cols() {
            let bias = skew * (-(c as f32) / e as f32 * 4.0).exp() / h as f32;
            let v = w.get(r, c);
            w.set(r, c, v + bias);
        }
    }
    Router::from_weight(w, k)
}

/// One configuration: run serial and overlapped forwards on the same cluster
/// spec and routing; returns the max-over-ranks step times (serial, overlap)
/// and whether the outputs are bitwise identical.
fn run_config(top_k: usize, skew: usize) -> (f64, f64, bool) {
    let cluster = SimCluster::new(
        CostModel::new(ClusterTopology::new(scaled_frontier(), WORLD))
            .with_congestion(CongestionModel::none()),
    );
    let router = skewed_router(HIDDEN, EXPERTS, top_k, skew as f32, 0x0E11);
    let spec = MoeLayerSpec::new(EXPERTS, usize::MAX / 2);

    let run = |overlap: bool| -> Vec<(f64, Tensor)> {
        cluster.run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, WORLD, EXPERTS, HIDDEN, FFN, 0x0E12);
            let tokens =
                Tensor::rand_uniform(TOKENS_PER_RANK, HIDDEN, 1.0, 0x0E13 + ctx.rank as u64);
            let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            ex.overlap_chunks = overlap.then_some(CHUNKS);
            let out = PaddingFreePipeline
                .forward(&tokens, &router, &shard, &spec, &mut ex)
                .expect("pft forward");
            (ctx.clock.now(), out)
        })
    };

    let serial = run(false);
    let overlapped = run(true);
    let step = |rs: &[(f64, Tensor)]| rs.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
    let bitwise = serial
        .iter()
        .zip(overlapped.iter())
        .all(|((_, a), (_, b))| a.allclose(b, 0.0));
    (step(&serial), step(&overlapped), bitwise)
}

fn run(smoke: bool, _env: &Env) -> (Vec<Record>, Vec<Check>) {
    let top_ks: &[usize] = if smoke { &[8] } else { &[2, 4, 8] };
    println!(
        "== bench overlap — serial vs {CHUNKS}-chunk dispatch-compute overlap \
         (pft, {WORLD} ranks, {EXPERTS} experts, s={TOKENS_PER_RANK} h={HIDDEN} f={FFN}, \
         machine {}) ==",
        scaled_frontier().name
    );

    let mut records = Vec::new();
    let mut all_bitwise = true;
    for &k in top_ks {
        for skew in [0, 8] {
            let (serial, overlap, bitwise) = run_config(k, skew);
            all_bitwise &= bitwise;
            records.push(
                Record::default()
                    .cfg("pipeline", tag("pft"))
                    .cfg("machine", tag(scaled_frontier().name))
                    .cfg("world", int(WORLD))
                    .cfg("tokens_per_rank", int(TOKENS_PER_RANK))
                    .cfg("hidden", int(HIDDEN))
                    .cfg("ffn", int(FFN))
                    .cfg("experts", int(EXPERTS))
                    .cfg("top_k", int(k))
                    .cfg("skew", int(skew))
                    .cfg("chunks", int(CHUNKS))
                    .metric("serial_step_s", Val::Fixed(serial, 9))
                    .metric("overlap_step_s", Val::Fixed(overlap, 9))
                    .metric("speedup", Val::Fixed(serial / overlap, 6)),
            );
        }
    }
    print_records("serial vs overlapped step", &records);
    println!(
        "note: low top-k routes little compute, so the {} extra per-chunk startup \
         latencies can win — the overlap pays off once expert time rivals the a2a.",
        2 * (CHUNKS - 1)
    );
    let live = vec![Check::new(
        "overlapped output bitwise-identical to serial in every config",
        all_bitwise,
        "chunked regroup/scatter must not reorder or re-associate any float".into(),
    )];
    (records, live)
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let mut hot = None;
    each(recs, |r| {
        let s = r.positive("serial_step_s")?;
        let o = r.positive("overlap_step_s")?;
        let sp = r.positive("speedup")?;
        if (sp - s / o).abs() > 1e-3 * sp {
            return Err("speedup inconsistent with step times".into());
        }
        if r.num("top_k")? == 8.0 && r.num("skew")? > 0.0 {
            hot = Some((s, o));
        }
        Ok(())
    })?;
    let (s, o) = hot.ok_or("no skewed top-k=8 record to gate the overlap win on")?;
    Ok(vec![Check::new(
        "overlap strictly beats serial on skewed top-k=8",
        o < s,
        format!(
            "overlap {} vs serial {} — compute hidden under the a2a must outweigh \
             the {} extra startup terms",
            fmt_time(o),
            fmt_time(s),
            2 * (CHUNKS - 1),
        ),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::testing::{env, failure, set};

    #[test]
    fn smoke_records_pass_and_each_gate_is_live() {
        let (recs, live) = run(true, &env());
        assert!(live.iter().all(|c| c.ok));
        assert_eq!(failure(&BENCH, &recs), None);

        // A slower overlap step, with speedup kept consistent with it.
        let s = recs[1].num("serial_step_s").unwrap();
        let slow = set(&recs, 1, "overlap_step_s", Val::Fixed(2.0 * s, 9));
        let slow = set(&slow, 1, "speedup", Val::Fixed(0.5, 6));
        let why = failure(&BENCH, &slow).expect("overlap slower than serial");
        assert!(why.contains("overlap strictly beats serial"), "{why}");

        let mut bare = recs.clone();
        bare[0].metrics.pop();
        let why = failure(&BENCH, &bare).expect("a record without its speedup");
        assert_eq!(why, "record 0: missing key speedup");

        let skewed = set(&recs, 0, "speedup", Val::Fixed(2.0, 6));
        let why = failure(&BENCH, &skewed).expect("speedup off its step times");
        assert!(why.contains("record 0: speedup inconsistent"), "{why}");
    }
}
