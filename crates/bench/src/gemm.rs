//! `bench gemm` — the GEMM microkernels of the MoE hot path.
//!
//! Every record's config names the dispatched ISA `tier`, the pool's `lanes`
//! and the machine's `cores`. The tables:
//!
//! - `kernels`: GFLOP/s of NN (`C = A·B`), NT (`C = A·Bᵀ`, on packed `Bᵀ`
//!   panels from `NT_PACK_MIN_ROWS` rows up, the dot tile below) and TN
//!   (`C_e += A_segᵀ·D_seg`) through the public grouped entry points, 8
//!   experts at each of `KERNEL_SHAPES`, with the share of an NT call spent
//!   packing (`--smoke`: the two gate shapes);
//! - `causal_view`: the strided causal NN products of `train_fine_ep2`'s
//!   attention;
//! - `grouped`: one `gemm_grouped` batch over E uneven expert segments
//!   against the back-to-back per-expert loop and against per-call scoped
//!   spawning (the schedule the persistent pool replaced); `dense`: one
//!   expert owning every row against `matmul_slices`;
//! - full run only: `transpose` (materialise `Bᵀ` + NN against
//!   `matmul_transpose_b`) and `zero_skip` (dense `A` against `A` with every
//!   other 8-row group zeroed).
//!
//! Both arms of every comparison are timed by `crate::time_interleaved`.
//! The gates, each skipped where its hazard cannot show: NT >= 0.75x NN at
//! the two fine-grained backward shapes (avx2 / avx512 tiers); grouped >=
//! 1.3x sequential at e=256 x 16 rows (>= 2 lanes on >= 2 cores); pool >=
//! 0.8x scoped spawn (>= 2 lanes); grouped >= dense / 1.25; in the full run,
//! transpose-free <= 1.25x materialising and half-zero `A` >= 1.5x faster
//! than dense. The live checks are bitwise identities: every grouped kernel
//! against its per-segment public kernel, and the three expert schedules
//! against each other. The pool size is fixed per process, so CI runs it
//! twice: at the default lane count and under `XMOE_THREADS=1`.

use xmoe_tensor::{
    gemm_grouped, gemm_grouped_transpose_a, gemm_grouped_transpose_b, gemm_tier, gemm_view, matmul,
    matmul_slices, matmul_transpose_a_add, matmul_transpose_b, matmul_transpose_b_slices,
    nt_pack_probe, pool_size, Causal, Tensor, NT_PACK_MIN_ROWS,
};

use crate::spine::{bench, int, print_records, row, tag, Check, Env, Outcome, Record, Val};
use crate::time_interleaved;

bench!(
    gemm,
    "GEMM microkernels and the grouped expert GEMM on the worker pool"
);

/// (rows per expert, k, n) of the kernel table: the benchmark's four
/// per-expert shapes (`layer_fine_1r`: 128x256x64, 128x64x256;
/// `layer_coarse_1r`: 128x256x512, 128x512x256), a short segment (serving
/// steps; below `NT_PACK_MIN_ROWS`, so its NT cell is the dot tile) and the
/// `dispatch_tiny_ep2` shape. The first [`NT_GATE_SHAPES`] carry the
/// NT-vs-NN gate and are all `--smoke` runs.
const KERNEL_SHAPES: [(usize, usize, usize); 6] = [
    (128, 256, 64),
    (128, 64, 256),
    (128, 256, 512),
    (128, 512, 256),
    (8, 256, 64),
    (12, 8, 8),
];
const NT_GATE_SHAPES: usize = 2;
const EXPERTS: usize = 8;

/// (m, k, n) of the full run's `transpose` and `zero_skip` tables.
const WIDE_SHAPES: [(usize, usize, usize); 4] = [
    (1024, 256, 256),
    (2048, 64, 512),
    (512, 512, 128),
    (4096, 128, 64),
];

/// The grouped gate shape: experts x rows per expert.
const MANY_SMALL: (usize, usize) = (256, 16);

/// A timed sample repeats its call until it spans this long, so the
/// sub-microsecond `h = f = 8` kernels time as reliably as the large ones.
const SAMPLE_S: f64 = 2e-3;
/// Interleaved samples per arm: enough that a noise spell of a few samples
/// leaves every arm some quiet ones on the shared 2-vCPU box.
const PASSES: usize = 15;

/// The machine a record was measured on.
struct Machine {
    tier: &'static str,
    lanes: usize,
    cores: usize,
}

impl Machine {
    fn here() -> Self {
        Machine {
            tier: gemm_tier(),
            lanes: pool_size(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn row(&self, table: &str) -> Record {
        row(table)
            .cfg("tier", tag(self.tier))
            .cfg("lanes", int(self.lanes))
            .cfg("cores", int(self.cores))
    }
}

/// Seconds per call of each arm: every arm repeats its call until a sample
/// spans [`SAMPLE_S`], then the fastest of [`PASSES`] interleaved samples.
fn per_call<const N: usize>(mut arms: [&mut dyn FnMut(); N]) -> [f64; N] {
    let calls = arms.each_mut().map(|f| {
        f();
        let t0 = std::time::Instant::now();
        f();
        (SAMPLE_S / t0.elapsed().as_secs_f64().max(1e-9)).ceil() as usize
    });
    let mut samples: Vec<_> = arms
        .iter_mut()
        .zip(calls)
        .map(|(f, n)| move || (0..n).for_each(|_| f()))
        .collect();
    let mut samples: Vec<&mut dyn FnMut()> =
        samples.iter_mut().map(|f| f as &mut dyn FnMut()).collect();
    let best = time_interleaved(PASSES, &|| {}, &mut samples);
    std::array::from_fn(|i| best[i] / calls[i] as f64)
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A live bitwise check: it holds when nothing `diverged`.
fn identity(claim: &str, diverged: &[String], held: String) -> Check {
    let detail = if diverged.is_empty() {
        held
    } else {
        format!("diverged at {}", diverged.join(", "))
    };
    Check::new(claim, diverged.is_empty(), detail)
}

fn us(seconds: f64) -> Val {
    Val::Fixed(seconds * 1e6, 1)
}

fn gflops(flop: f64, seconds: f64) -> Val {
    Val::Fixed(flop / seconds / 1e9, 1)
}

/// One `kernels` row, and the kernels whose bits differ from their
/// per-segment public kernel (none, if all is well).
fn kernel_row(at: &Machine, (m, k, n): (usize, usize, usize)) -> (Record, Vec<String>) {
    let total = m * EXPERTS;
    let counts = [m; EXPERTS];
    let a = Tensor::rand_uniform(total, k, 1.0, 0x6E40);
    let d = Tensor::rand_uniform(total, n, 1.0, 0x6E41);
    let w: Vec<Tensor> = (0..EXPERTS)
        .map(|e| Tensor::rand_uniform(k, n, 1.0, 0x6E42 + e as u64))
        .collect();
    let wt: Vec<Tensor> = w.iter().map(Tensor::transpose).collect();
    let (av, dv) = (a.as_slice(), d.as_slice());
    let seg = |e: usize, width: usize| e * m * width..(e + 1) * m * width;

    // NN and NT overwrite a poisoned output; TN adds onto zeros.
    let (mut c, mut c_ref) = (vec![f32::NAN; total * n], vec![f32::NAN; total * n]);
    let (mut g, mut g_ref) = (vec![0.0f32; EXPERTS * k * n], vec![0.0f32; EXPERTS * k * n]);
    gemm_grouped(av, &counts, k, |e| w[e].as_slice(), n, &mut c);
    for (e, w) in w.iter().enumerate() {
        matmul_slices(&av[seg(e, k)], m, k, w.as_slice(), n, &mut c_ref[seg(e, n)]);
    }
    let nn_ok = bits_equal(&c, &c_ref);
    gemm_grouped_transpose_b(av, &counts, k, |e| wt[e].as_slice(), n, &mut c);
    for (e, wt) in wt.iter().enumerate() {
        matmul_transpose_b_slices(
            &av[seg(e, k)],
            m,
            k,
            wt.as_slice(),
            n,
            &mut c_ref[seg(e, n)],
        );
    }
    let nt_ok = bits_equal(&c, &c_ref);
    gemm_grouped_transpose_a(av, &counts, k, dv, n, &mut g);
    for (e, block) in g_ref.chunks_exact_mut(k * n).enumerate() {
        let rows = |t: &Tensor| t.slice_rows(e * m, (e + 1) * m);
        let mut acc = Tensor::zeros(k, n);
        matmul_transpose_a_add(&rows(&a), &rows(&d), &mut acc);
        block.copy_from_slice(acc.as_slice());
    }
    let tn_ok = bits_equal(&g, &g_ref);
    let diverged = [(nn_ok, "NN"), (nt_ok, "NT"), (tn_ok, "TN")]
        .into_iter()
        .filter(|&(ok, _)| !ok)
        .map(|(_, kernel)| format!("{kernel} at {m}x{k}x{n}"))
        .collect();

    // Packing alone, all experts on this thread (a pooled NT call spreads it
    // over the lanes with the tiles, so this is an upper share).
    let [t_nn, t_nt, t_tn, t_pack] = per_call([
        &mut || gemm_grouped(av, &counts, k, |e| w[e].as_slice(), n, &mut c),
        &mut || gemm_grouped_transpose_b(av, &counts, k, |e| wt[e].as_slice(), n, &mut c_ref),
        &mut || gemm_grouped_transpose_a(av, &counts, k, dv, n, &mut g),
        &mut || wt.iter().for_each(|wt| nt_pack_probe(wt.as_slice(), k, n)),
    ]);
    let flop = 2.0 * (total * k * n) as f64;
    let r = at
        .row("kernels")
        .cfg("experts", int(EXPERTS))
        .cfg("rows", int(m))
        .cfg("k", int(k))
        .cfg("n", int(n))
        .metric("nn_gflops", gflops(flop, t_nn))
        .metric("nt_gflops", gflops(flop, t_nt))
        .metric("tn_gflops", gflops(flop, t_tn));
    let r = if m >= NT_PACK_MIN_ROWS {
        r.metric("nt_pack_pct", Val::Fixed(100.0 * t_pack / t_nt, 1))
    } else {
        r
    };
    (r, diverged)
}

/// The two strided causal NN products of `train_fine_ep2`'s attention (4
/// sequences x 4 heads of `seq 64, hd 16`, read in place at `ld = hidden`):
/// GFLOP/s of the causal half on the calling thread — `gemm_view` is serial,
/// so this is per lane at any pool size. `xmoe-train`'s attention tests hold
/// the bits.
fn causal_view(at: &Machine) -> Record {
    const SEQ: usize = 64;
    const HD: usize = 16;
    const HEADS: usize = 4;
    const BATCH: usize = 4;
    let (n, hidden) = (BATCH * SEQ, HEADS * HD);
    let q = Tensor::rand_uniform(n, hidden, 1.0, 0x6E50);
    let kt = Tensor::rand_uniform(hidden, n, 1.0, 0x6E51);
    // S is written where O's probabilities are read: the two products are
    // timed interleaved, so P is a tensor of its own.
    let mut s = Tensor::zeros(n * HEADS, SEQ);
    let p = Tensor::rand_uniform(n * HEADS, SEQ, 1.0, 0x6E53);
    let mut o = Tensor::zeros(n, hidden);
    // (sequence, head) -> its rows in `q`/`o`, its panel in `kt`, its block of `s`/`p`.
    let head = |i: usize| {
        let (b, h) = (i / HEADS, i % HEADS);
        (
            b * SEQ * hidden + h * HD,
            h * HD * n + b * SEQ,
            i * SEQ * SEQ,
        )
    };
    let [t_s, t_o] = per_call([
        &mut || {
            for (rows, panel, block) in (0..BATCH * HEADS).map(head) {
                gemm_view(
                    false,
                    (&q.as_slice()[rows..], hidden),
                    (&kt.as_slice()[panel..], n),
                    (&mut s.as_mut_slice()[block..], SEQ),
                    (SEQ, HD, SEQ),
                    Causal::LowerC,
                );
            }
        },
        &mut || {
            for (rows, _, block) in (0..BATCH * HEADS).map(head) {
                gemm_view(
                    false,
                    (&p.as_slice()[block..], SEQ),
                    (&q.as_slice()[rows..], hidden),
                    (&mut o.as_mut_slice()[rows..], hidden),
                    (SEQ, SEQ, HD),
                    Causal::LowerA,
                );
            }
        },
    ]);
    let flop = 2.0 * (BATCH * HEADS * HD * SEQ * (SEQ + 1) / 2) as f64;
    at.row("causal_view")
        .cfg("heads", int(BATCH * HEADS))
        .cfg("seq", int(SEQ))
        .cfg("head_dim", int(HD))
        .metric("qk_gflops", gflops(flop, t_s))
        .metric("pv_gflops", gflops(flop, t_o))
}

/// Per-expert segments through their own back-to-back GEMM calls — what the
/// hot path did before grouped scheduling. Each call may itself use the
/// pool above the cutoff, but E small segments never fill the machine.
fn sequential_experts(input: &[f32], counts: &[usize], k: usize, w: &[&Tensor], c: &mut [f32]) {
    let n = c.len() / counts.iter().sum::<usize>();
    let mut off = 0usize;
    for (e, &cnt) in counts.iter().enumerate() {
        let rows = off..off + cnt;
        let (a, c) = (
            &input[rows.start * k..rows.end * k],
            &mut c[rows.start * n..rows.end * n],
        );
        matmul_slices(a, cnt, k, w[e].as_slice(), n, c);
        off += cnt;
    }
}

/// One expert's worth of work: expert index, its input rows, its output rows.
type ExpertJob<'a> = (usize, &'a [f32], &'a mut [f32]);

/// Expert-level parallelism via **per-call scoped spawning** — the schedule
/// the persistent pool replaced: experts round-robined over `pool_size()`
/// fresh threads, spawned and joined on every call.
fn scoped_spawn_experts(input: &[f32], counts: &[usize], k: usize, w: &[&Tensor], c: &mut [f32]) {
    let n = c.len() / counts.iter().sum::<usize>();
    let lanes = pool_size().max(1);
    // Carve disjoint per-expert jobs out of the operand and output buffers.
    let mut per_lane: Vec<Vec<ExpertJob>> = (0..lanes).map(|_| Vec::new()).collect();
    let (mut ra, mut rc) = (input, c);
    for (e, &cnt) in counts.iter().enumerate() {
        let (sa, ta) = ra.split_at(cnt * k);
        let (sc, tc) = rc.split_at_mut(cnt * n);
        (ra, rc) = (ta, tc);
        per_lane[e % lanes].push((e, sa, sc));
    }
    let run = |lane: Vec<ExpertJob>| {
        for (e, sa, sc) in lane {
            matmul_slices(sa, sa.len() / k, k, w[e].as_slice(), n, sc);
        }
    };
    if lanes == 1 {
        per_lane.into_iter().for_each(run);
    } else {
        std::thread::scope(|s| {
            for lane in per_lane {
                s.spawn(move || run(lane));
            }
        });
    }
}

/// The `grouped` rows and the `dense` row, plus the live checks that every
/// schedule gave the same bits.
fn grouped_rows(at: &Machine, smoke: bool) -> (Vec<Record>, Vec<Check>) {
    // x[rows,256] @ w[256,256] per expert: wide enough that the gate shape
    // is >= 2 ms per call on the avx512 tier, narrow enough that a 16-row
    // segment (1 M MACs) stays below the single-GEMM parallel cutoff, so the
    // sequential loop really is serial. Experts share 8 weight tensors: the
    // schedule sees E segments, the cache sees 2 MB.
    let (k, n) = (256usize, 256usize);
    const DISTINCT_WEIGHTS: usize = 8;
    const MAX_ROWS: usize = 16 * 1024;
    let expert_counts: &[usize] = if smoke { &[8, 256] } else { &[8, 64, 256] };
    let rows_per: &[usize] = if smoke { &[16, 64] } else { &[16, 64, 256] };
    let weights: Vec<Tensor> = (0..DISTINCT_WEIGHTS)
        .map(|e| Tensor::rand_uniform(k, n, 1.0, 0x6E51 + e as u64))
        .collect();

    let mut recs = Vec::new();
    let mut diverged = Vec::new();
    for &e_count in expert_counts {
        for &rpe in rows_per.iter().filter(|&&rpe| e_count * rpe <= MAX_ROWS) {
            // Uneven segments (±1 around rows-per-expert): the ragged counts
            // the router actually produces.
            let counts: Vec<usize> = (0..e_count).map(|e| rpe - 1 + (e % 3)).collect();
            let total: usize = counts.iter().sum();
            let input = Tensor::rand_uniform(total, k, 1.0, 0x6E50 + (e_count * rpe) as u64);
            let a = input.as_slice();
            let w: Vec<&Tensor> = (0..e_count)
                .map(|e| &weights[e % DISTINCT_WEIGHTS])
                .collect();
            let mut c = [0, 1, 2].map(|_| vec![f32::NAN; total * n]);
            let [c_seq, c_grp, c_scp] = &mut c;
            let [t_seq, t_grp, t_scp] = per_call([
                &mut || sequential_experts(a, &counts, k, &w, c_seq),
                &mut || gemm_grouped(a, &counts, k, |e| w[e].as_slice(), n, c_grp),
                &mut || scoped_spawn_experts(a, &counts, k, &w, c_scp),
            ]);
            if !(bits_equal(&c[0], &c[1]) && bits_equal(&c[0], &c[2])) {
                diverged.push(format!("e={e_count} rows/expert={rpe}"));
            }
            recs.push(
                at.row("grouped")
                    .cfg("experts", int(e_count))
                    .cfg("rows_per_expert", int(rpe))
                    .metric("sequential_us", us(t_seq))
                    .metric("grouped_us", us(t_grp))
                    .metric("scoped_spawn_us", us(t_scp)),
            );
        }
    }

    // One expert holding every row: the grouped entry point degenerates to a
    // single panel-split GEMM.
    let dm = 4096usize;
    let input = Tensor::rand_uniform(dm, k, 1.0, 0x6E52);
    let (a, w0) = (input.as_slice(), weights[0].as_slice());
    let (mut c_dense, mut c_grp) = (vec![f32::NAN; dm * n], vec![f32::NAN; dm * n]);
    let [t_dense, t_grp] = per_call([
        &mut || matmul_slices(a, dm, k, w0, n, &mut c_dense),
        &mut || gemm_grouped(a, &[dm], k, |_| w0, n, &mut c_grp),
    ]);
    recs.push(
        at.row("dense")
            .cfg("rows", int(dm))
            .metric("matmul_us", us(t_dense))
            .metric("grouped_us", us(t_grp)),
    );
    let checks = vec![
        identity(
            "grouped GEMM == sequential per-expert loop == scoped spawn, bitwise",
            &diverged,
            format!("{} shapes", recs.len() - 1),
        ),
        Check::new(
            "single-expert grouped GEMM == matmul_slices, bitwise",
            bits_equal(&c_dense, &c_grp),
            format!("{dm} rows, [{dm},{k}] @ [{k},{n}]"),
        ),
    ];
    (recs, checks)
}

/// The full run's `transpose` rows: `C = A @ B^T` from row-major operands
/// through `matmul_transpose_b` against materialise-`B^T`-then-NN, the
/// kernel it replaced.
fn transpose_rows(at: &Machine) -> (Vec<Record>, Check) {
    let mut recs = Vec::new();
    let mut all_close = true;
    for &(m, k, n) in &WIDE_SHAPES {
        let a = Tensor::rand_uniform(m, k, 1.0, 0x6E44 + m as u64);
        let b = Tensor::rand_uniform(n, k, 1.0, 0x6E45 + n as u64);
        let (mut c_old, mut c_new) = (Tensor::zeros(0, 0), Tensor::zeros(0, 0));
        let [t_old, t_new] = per_call([&mut || c_old = matmul(&a, &b.transpose()), &mut || {
            c_new = matmul_transpose_b(&a, &b)
        }]);
        all_close &= c_old.allclose(&c_new, 1e-4);
        recs.push(
            at.row("transpose")
                .cfg("m", int(m))
                .cfg("k", int(k))
                .cfg("n", int(n))
                .metric("materialize_us", us(t_old))
                .metric("transpose_free_us", us(t_new)),
        );
    }
    let check = Check::new(
        "transpose-free kernel matches the materializing one",
        all_close,
        "both must compute the same C up to fp32 rounding".into(),
    );
    (recs, check)
}

/// The full run's `zero_skip` rows. Zero operand values occur in this
/// codebase only as whole zero rows (block-sparse pad rows, the dense
/// pipeline's under-capacity slots), and the register tile skips a row group
/// whose `A` rows are all zero: dense `A` against `A` with every other 8-row
/// group zeroed (so every lane's row chunk is half pad).
fn zero_skip_rows(at: &Machine) -> (Vec<Record>, Check) {
    let mut recs = Vec::new();
    let mut all_equal = true;
    for &(m, k, n) in &WIDE_SHAPES {
        let dense = Tensor::rand_uniform(m, k, 1.0, 0x6E46 + m as u64);
        let mut padded = dense.clone();
        let zero_row = |r: usize| (r / 8) % 2 == 1;
        (0..m)
            .filter(|&r| zero_row(r))
            .for_each(|r| padded.row_mut(r).fill(0.0));
        let b = Tensor::rand_uniform(k, n, 1.0, 0x6E47 + n as u64);
        let (mut c_dense, mut c_pad) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
        let [t_dense, t_pad] = per_call([
            &mut || matmul_slices(dense.as_slice(), m, k, b.as_slice(), n, &mut c_dense),
            &mut || matmul_slices(padded.as_slice(), m, k, b.as_slice(), n, &mut c_pad),
        ]);
        // A skipped group stores +0.0; every other row is the dense row.
        all_equal &= (0..m).all(|r| {
            let (got, dense_row) = (&c_pad[r * n..(r + 1) * n], &c_dense[r * n..(r + 1) * n]);
            if zero_row(r) {
                got.iter().all(|v| v.to_bits() == 0)
            } else {
                bits_equal(got, dense_row)
            }
        });
        recs.push(
            at.row("zero_skip")
                .cfg("m", int(m))
                .cfg("k", int(k))
                .cfg("n", int(n))
                .metric("dense_us", us(t_dense))
                .metric("half_zero_us", us(t_pad)),
        );
    }
    let check = Check::new(
        "row-group skip: zero A rows give +0.0 rows, the rest equal the dense product bitwise",
        all_equal,
        "a sum of +-0.0 products formed from 0.0 is +0.0, which the skip stores".into(),
    );
    (recs, check)
}

fn run(smoke: bool, _env: &Env) -> Outcome {
    let at = Machine::here();
    println!(
        "== bench gemm — tier {}, {} lane(s) on {} core(s){} ==",
        at.tier,
        at.lanes,
        at.cores,
        if smoke { ", smoke" } else { "" }
    );
    let shapes = if smoke {
        &KERNEL_SHAPES[..NT_GATE_SHAPES]
    } else {
        &KERNEL_SHAPES[..]
    };
    let (mut recs, mut diverged) = (Vec::new(), Vec::new());
    for &shape in shapes {
        let (r, bad) = kernel_row(&at, shape);
        recs.push(r);
        diverged.extend(bad);
    }
    let mut live = vec![identity(
        "grouped NN / NT / TN == their per-segment public kernels, bitwise",
        &diverged,
        format!("{} shapes x {EXPERTS} experts", shapes.len()),
    )];
    print_records("microkernels (GFLOP/s)", &recs);
    let causal = causal_view(&at);
    let title = "strided causal NN views, 1 lane (GFLOP/s of the causal half)";
    print_records(title, std::slice::from_ref(&causal));
    recs.push(causal);
    let (grouped, checks) = grouped_rows(&at, smoke);
    let (many, dense) = grouped.split_at(grouped.len() - 1);
    print_records(
        "grouped vs sequential vs scoped-spawn expert GEMM (us)",
        many,
    );
    print_records("one expert owning every row (us)", dense);
    recs.extend(grouped);
    live.extend(checks);
    if !smoke {
        for (table, (rows, check)) in [
            (
                "C = A @ B^T: materialized B^T vs transpose-free",
                transpose_rows(&at),
            ),
            ("the zero skip: dense vs half-zero A", zero_skip_rows(&at)),
        ] {
            print_records(table, &rows);
            recs.extend(rows);
            live.push(check);
        }
    }
    (recs, live)
}

/// The records of `table`, in order.
fn rows_of<'a>(recs: &'a [Record], table: &str) -> Vec<&'a Record> {
    recs.iter()
        .filter(|r| r.tag("table") == Ok(table))
        .collect()
}

/// `key_a / key_b` of `r`.
fn ratio(r: &Record, key_a: &str, key_b: &str) -> Result<f64, String> {
    Ok(r.positive(key_a)? / r.positive(key_b)?)
}

/// The smallest `key_a / key_b` over `rows`.
fn min_ratio(rows: &[&Record], key_a: &str, key_b: &str) -> Result<f64, String> {
    let mut ratios = rows.iter().map(|r| ratio(r, key_a, key_b));
    ratios.try_fold(f64::INFINITY, |worst, x| Ok(worst.min(x?)))
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let mut checks = Vec::new();
    let kernels = rows_of(recs, "kernels");
    let gate_rows = kernels
        .get(..NT_GATE_SHAPES)
        .ok_or("fewer than 2 kernels rows")?;
    for (r, &(m, k, n)) in gate_rows.iter().zip(&KERNEL_SHAPES) {
        let shape = [r.num("rows")?, r.num("k")?, r.num("n")?];
        if shape != [m as f64, k as f64, n as f64] {
            return Err(format!(
                "kernels row {shape:?} is not the gate shape {m}x{k}x{n}"
            ));
        }
    }
    // Held on the avx2 / avx512 tiers only: the hazard is a wide tile falling
    // out of its registers (the base tier reads ~1.0x too).
    if gate_rows[0].tag("tier")? != "base" {
        let worst = min_ratio(gate_rows, "nt_gflops", "nn_gflops")?;
        checks.push(Check::new(
            "packed NT >= 0.75x NN GFLOP/s at the fine-grained backward shapes",
            worst >= 0.75,
            format!(
                "worst of the first {NT_GATE_SHAPES} rows {worst:.2}x on {} lane(s); the same \
                 multiply-adds, so a halved ratio means the lane-rotating tile stopped vectorising",
                gate_rows[0].num("lanes")?
            ),
        ));
    }

    let many_small = rows_of(recs, "grouped").into_iter().find(|r| {
        let (e, rpe) = MANY_SMALL;
        r.num("experts") == Ok(e as f64) && r.num("rows_per_expert") == Ok(rpe as f64)
    });
    let r = many_small.ok_or("missing the e=256 rows/expert=16 grouped record")?;
    let (lanes, cores) = (r.num("lanes")?, r.num("cores")?);
    // The throughput gate binds only when real concurrency exists: lanes
    // beyond the core count cannot speed anything up, and at one lane the
    // grouped path IS the sequential loop.
    if lanes >= 2.0 && cores >= 2.0 {
        let speedup = ratio(r, "sequential_us", "grouped_us")?;
        checks.push(Check::new(
            "grouped GEMM >= 1.3x on the many-small-expert shape (e=256, rows/expert=16)",
            speedup >= 1.3,
            format!("measured {speedup:.2}x with {lanes} lanes on {cores} cores"),
        ));
    }
    // Binds at any lane count >= 2, oversubscribed or not: replacing
    // per-call spawn+join with a persistent pool must never cost wall-clock
    // beyond noise.
    if lanes >= 2.0 {
        let vs_scoped = ratio(r, "scoped_spawn_us", "grouped_us")?;
        checks.push(Check::new(
            "persistent pool not slower than scoped spawn (within 25% noise)",
            vs_scoped >= 0.8,
            format!("measured {vs_scoped:.2}x on the many-small shape"),
        ));
    }
    let dense = Record::tagged(recs, "table", "dense")?;
    let vs_dense = ratio(dense, "matmul_us", "grouped_us")?;
    checks.push(Check::new(
        "grouped GEMM never worse than dense matmul (within 25% noise)",
        vs_dense >= 1.0 / 1.25,
        format!("measured {vs_dense:.2}x; a single whole-buffer expert is the same panel schedule"),
    ));

    // The full run (all six kernel shapes) adds the transpose and zero-skip tables.
    if kernels.len() == KERNEL_SHAPES.len() {
        let transpose = rows_of(recs, "transpose");
        let zero_skip = rows_of(recs, "zero_skip");
        if transpose.len() != WIDE_SHAPES.len() || zero_skip.len() != WIDE_SHAPES.len() {
            return Err("a full run needs 4 transpose and 4 zero_skip records".into());
        }
        let speedup = min_ratio(&transpose, "materialize_us", "transpose_free_us")?;
        checks.push(Check::new(
            "transpose-free kernel is not slower (within noise)",
            speedup >= 1.0 / 1.25,
            format!(
                "worst shape {speedup:.2}x; its pack is thread-local scratch, not an n*k \
                 allocation + fill per call"
            ),
        ));
        let padded_speedup = min_ratio(&zero_skip, "dense_us", "half_zero_us")?;
        checks.push(Check::new(
            "zero rows are still ~free: half-zero A runs >= 1.5x faster than dense",
            padded_speedup >= 1.5,
            format!(
                "worst shape {padded_speedup:.2}x; a skipped row group costs one scan of its A rows"
            ),
        ));
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::testing::{failure, set};

    /// Records shaped like a passing full run with 2 lanes on 2 cores. A
    /// live run cannot be a unit test: its gates are wall-clock.
    fn passing() -> Vec<Record> {
        let at = Machine {
            tier: "avx512",
            lanes: 2,
            cores: 2,
        };
        let gf = |x| Val::Fixed(x, 1);
        let mut recs: Vec<Record> = KERNEL_SHAPES
            .iter()
            .map(|&(m, k, n)| {
                at.row("kernels")
                    .cfg("experts", int(EXPERTS))
                    .cfg("rows", int(m))
                    .cfg("k", int(k))
                    .cfg("n", int(n))
                    .metric("nn_gflops", gf(80.0))
                    .metric("nt_gflops", gf(72.0))
                    .metric("tn_gflops", gf(85.0))
            })
            .collect();
        let causal = at.row("causal_view");
        recs.push(
            causal
                .metric("qk_gflops", gf(40.0))
                .metric("pv_gflops", gf(40.0)),
        );
        for (e, rpe) in [(8, 16), MANY_SMALL] {
            recs.push(
                at.row("grouped")
                    .cfg("experts", int(e))
                    .cfg("rows_per_expert", int(rpe))
                    .metric("sequential_us", us(14e-3))
                    .metric("grouped_us", us(8e-3))
                    .metric("scoped_spawn_us", us(8.2e-3)),
            );
        }
        let dense = at.row("dense").cfg("rows", int(4096));
        recs.push(
            dense
                .metric("matmul_us", us(7e-3))
                .metric("grouped_us", us(7.2e-3)),
        );
        for (table, slow, fast) in [
            ("transpose", "materialize_us", "transpose_free_us"),
            ("zero_skip", "dense_us", "half_zero_us"),
        ] {
            for &(m, k, n) in &WIDE_SHAPES {
                let r = at.row(table).cfg("m", int(m)).cfg("k", int(k));
                recs.push(
                    r.cfg("n", int(n))
                        .metric(slow, us(2e-3))
                        .metric(fast, us(1.1e-3)),
                );
            }
        }
        recs
    }

    /// Where the records of `passing()` sit.
    const MANY: usize = 8;
    const DENSE: usize = 9;
    const TRANSPOSE: usize = 10;
    const ZERO_SKIP: usize = 14;

    /// The claims `recs` fail.
    fn failed(recs: &[Record]) -> Vec<String> {
        let checks = gates(recs).expect("well-formed records");
        checks
            .into_iter()
            .filter(|c| !c.ok)
            .map(|c| c.claim)
            .collect()
    }

    fn fails_only(recs: &[Record], claim: &str) {
        let failed = failed(recs);
        assert!(
            matches!(&failed[..], [c] if c.starts_with(claim)),
            "expected only '{claim}' to fail, got {failed:?}"
        );
    }

    /// `recs` with `key` replaced by `v` in every record.
    fn everywhere(recs: &[Record], key: &str, v: Val) -> Vec<Record> {
        (0..recs.len()).fold(recs.to_vec(), |out, i| set(&out, i, key, v.clone()))
    }

    #[test]
    fn a_passing_run_passes_and_each_gate_is_live() {
        let recs = passing();
        assert_eq!(failure(&BENCH, &recs), None);
        assert_eq!(gates(&recs).unwrap().len(), 6);

        let nt = "packed NT >= 0.75x NN";
        fails_only(&set(&recs, 1, "nt_gflops", Val::Fixed(59.0, 1)), nt);
        let slow_seq = set(&recs, MANY, "sequential_us", us(10e-3));
        fails_only(&slow_seq, "grouped GEMM >= 1.3x");
        let slow_pool = set(&recs, MANY, "scoped_spawn_us", us(6e-3));
        fails_only(&slow_pool, "persistent pool not slower");
        let slow_dense = set(&recs, DENSE, "grouped_us", us(9e-3));
        fails_only(&slow_dense, "grouped GEMM never worse than dense");
        let slow_tf = set(&recs, TRANSPOSE + 1, "transpose_free_us", us(2.6e-3));
        fails_only(&slow_tf, "transpose-free kernel is not slower");
        let slow_skip = set(&recs, ZERO_SKIP + 3, "half_zero_us", us(1.5e-3));
        fails_only(&slow_skip, "zero rows are still ~free");
        // Only the two fine-grained shapes carry the NT gate.
        assert!(failed(&set(&recs, 2, "nt_gflops", Val::Fixed(9.0, 1))).is_empty());

        // A smoke run: the two gate shapes, no transpose or zero-skip table.
        let smoke: Vec<Record> = recs[..NT_GATE_SHAPES]
            .iter()
            .chain(&recs[KERNEL_SHAPES.len()..TRANSPOSE])
            .cloned()
            .collect();
        assert_eq!(failure(&BENCH, &smoke), None);
        assert_eq!(gates(&smoke).unwrap().len(), 4);
        let many: Vec<Record> = recs
            .iter()
            .filter(|r| r.num("experts") != Ok(256.0))
            .cloned()
            .collect();
        let why = gates(&many).unwrap_err();
        assert_eq!(why, "missing the e=256 rows/expert=16 grouped record");
    }

    #[test]
    fn each_gate_skips_where_its_hazard_cannot_show() {
        let recs = passing();
        // The base tier: the NT gate is not held.
        let base = everywhere(&recs, "tier", tag("base"));
        assert!(failed(&set(&base, 1, "nt_gflops", Val::Fixed(9.0, 1))).is_empty());
        assert_eq!(gates(&base).unwrap().len(), 5);
        // One lane: neither grouped-speed gate binds; the dense one does.
        let one_lane = everywhere(&recs, "lanes", int(1));
        let slow = set(&one_lane, MANY, "sequential_us", us(6e-3));
        assert!(failed(&set(&slow, MANY, "scoped_spawn_us", us(6e-3))).is_empty());
        fails_only(
            &set(&one_lane, DENSE, "grouped_us", us(9e-3)),
            "grouped GEMM never worse than dense",
        );
        // One core: the 1.3x gate skips, the pool-vs-spawn bound still binds.
        let one_core = everywhere(&recs, "cores", int(1));
        assert!(failed(&set(&one_core, MANY, "sequential_us", us(10e-3))).is_empty());
        fails_only(
            &set(&one_core, MANY, "scoped_spawn_us", us(6e-3)),
            "persistent pool not slower",
        );
    }
}
