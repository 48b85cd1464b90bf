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
//! Output: a table on stdout plus `BENCH_overlap.json` — a JSON array whose
//! records carry exactly the keys `config`, `serial_step_s`,
//! `overlap_step_s`, `speedup` (validated in CI via `--validate`).
//!
//! Flags: `--smoke` (top-k=8 only, for CI), `--out <path>`,
//! `--validate <path>` (schema-check an existing file and exit).

use std::process::ExitCode;

use xmoe_bench::report;
use xmoe_bench::{fmt_time, print_table, shape_check};
use xmoe_collectives::SimCluster;
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::Router;
use xmoe_core::pipeline::{ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline};
use xmoe_tensor::Tensor;
use xmoe_topology::{ClusterTopology, CongestionModel, CostModel, MachineSpec};

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

struct Record {
    top_k: usize,
    skew: f32,
    serial_step_s: f64,
    overlap_step_s: f64,
    bitwise: bool,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.serial_step_s / self.overlap_step_s
    }
}

/// One configuration: run serial and overlapped forwards on the same cluster
/// spec and routing, return the max-over-ranks step times plus a bitwise
/// comparison of the outputs.
fn run_config(top_k: usize, skew: f32) -> Record {
    let cluster = SimCluster::new(
        CostModel::new(ClusterTopology::new(scaled_frontier(), WORLD))
            .with_congestion(CongestionModel::none()),
    );
    let router = skewed_router(HIDDEN, EXPERTS, top_k, skew, 0x0E11);
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
    Record {
        top_k,
        skew,
        serial_step_s: step(&serial),
        overlap_step_s: step(&overlapped),
        bitwise,
    }
}

fn render_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let config = format!(
            concat!(
                "{{\"pipeline\": \"pft\", \"machine\": \"{}\", \"world\": {}, ",
                "\"tokens_per_rank\": {}, \"hidden\": {}, \"ffn\": {}, ",
                "\"experts\": {}, \"top_k\": {}, \"skew\": {}, \"chunks\": {}, {}}}"
            ),
            report::json_safe(scaled_frontier().name),
            WORLD,
            TOKENS_PER_RANK,
            HIDDEN,
            FFN,
            EXPERTS,
            r.top_k,
            r.skew,
            CHUNKS,
            report::worker_fields(),
        );
        out.push_str(&format!(
            "  {{\"config\": {}, \"serial_step_s\": {:.9}, \"overlap_step_s\": {:.9}, \"speedup\": {:.6}}}{}\n",
            config,
            r.serial_step_s,
            r.overlap_step_s,
            r.speedup(),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Schema check for `BENCH_overlap.json`: a top-level array of objects, each
/// carrying the keys `config`, `serial_step_s`, `overlap_step_s`, `speedup`
/// with finite positive scalar times. Returns the number of records.
fn validate(text: &str) -> Result<usize, String> {
    let objects = report::split_records(text)?;
    for (i, obj) in objects.iter().enumerate() {
        if !obj.contains("\"config\":") {
            return Err(format!("record {i}: missing key config"));
        }
        let s = report::positive_scalar(obj, "serial_step_s")
            .map_err(|e| format!("record {i}: {e}"))?;
        let o = report::positive_scalar(obj, "overlap_step_s")
            .map_err(|e| format!("record {i}: {e}"))?;
        let sp = report::positive_scalar(obj, "speedup").map_err(|e| format!("record {i}: {e}"))?;
        if (sp - s / o).abs() > 1e-3 * sp {
            return Err(format!("record {i}: speedup inconsistent with step times"));
        }
    }
    Ok(objects.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_overlap.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--validate" => {
                let path = it.next().expect("--validate needs a path");
                return report::validate_file_cli(path, validate);
            }
            other => {
                eprintln!("unknown flag {other} (expected --smoke | --out <p> | --validate <p>)");
                return ExitCode::FAILURE;
            }
        }
    }

    let top_ks: &[usize] = if smoke { &[8] } else { &[2, 4, 8] };
    let skews: &[f32] = &[0.0, 8.0];

    println!(
        "== bench overlap — serial vs {CHUNKS}-chunk dispatch-compute overlap \
         (pft, {WORLD} ranks, {EXPERTS} experts, s={TOKENS_PER_RANK} h={HIDDEN} f={FFN}, \
         machine {}) ==",
        scaled_frontier().name
    );

    let mut records = Vec::new();
    let mut rows = Vec::new();
    let mut all_bitwise = true;
    for &k in top_ks {
        for &skew in skews {
            let r = run_config(k, skew);
            all_bitwise &= r.bitwise;
            rows.push(vec![
                format!("{k}"),
                format!("{skew:.0}"),
                fmt_time(r.serial_step_s),
                fmt_time(r.overlap_step_s),
                format!("{:.2}x", r.speedup()),
            ]);
            records.push(r);
        }
    }
    print_table(
        "serial vs overlapped step",
        &["top-k", "skew", "serial", "overlap", "speedup"],
        &rows,
    );

    let hot = records
        .iter()
        .find(|r| r.top_k == 8 && r.skew > 0.0)
        .expect("sweep always includes skewed top-k=8");
    shape_check(
        "overlapped output bitwise-identical to serial in every config",
        all_bitwise,
        "chunked regroup/scatter must not reorder or re-associate any float",
    );
    shape_check(
        "overlap strictly beats serial on skewed top-k=8",
        hot.overlap_step_s < hot.serial_step_s,
        &format!(
            "overlap {} vs serial {} — compute hidden under the a2a must outweigh \
             the {} extra startup terms",
            fmt_time(hot.overlap_step_s),
            fmt_time(hot.serial_step_s),
            2 * (CHUNKS - 1),
        ),
    );

    match report::write_validated(&out_path, &render_json(&records), validate) {
        Ok(n) => println!("wrote {out_path} ({n} records, schema OK)"),
        Err(e) => {
            eprintln!("{out_path} failed self-validation: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "note: low top-k routes little compute, so the {} extra per-chunk startup \
         latencies can win — the overlap pays off once expert time rivals the a2a.",
        2 * (CHUNKS - 1)
    );
    if !(all_bitwise && hot.overlap_step_s < hot.serial_step_s) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
