//! `bench gemm` — the GEMM microkernels of the MoE hot path.
//!
//! Four sections:
//!
//! 1. **The register-tiled microkernels** — GFLOP/s of NN (`C = A·B`), NT
//!    (`C = A·Bᵀ`, on packed `Bᵀ` panels from 16 rows up, the dot tile
//!    below) and TN (`C_e = C_e + A_segᵀ·D_seg`) through the public grouped
//!    entry points on the dispatched ISA tier, at the benchmark's four
//!    per-expert shapes, a short segment and the `h = f = 8` shape, each
//!    checked bit for bit against the scalar loops they replaced, with the
//!    share of an NT call that is packing. The process's lane count first,
//!    then the same table from a child process pinned to `XMOE_THREADS=1`.
//!    Gate (avx2 / avx512 tiers): NT >= 0.75x NN GFLOP/s at the two
//!    fine-grained backward shapes.
//! 2. **Transpose-free backward** — `matmul_transpose_b` computes
//!    `C = A @ B^T` from row-major operands without a caller-visible `B^T`,
//!    replacing a kernel that materialized a fresh one per call, and is not
//!    slower than materialize-then-NN.
//! 3. **The zero skip** — whole-zero row groups (the pad rows of the dense
//!    and block-sparse pipelines) cost nothing in the NN kernel.
//! 4. **Grouped expert GEMM on the persistent worker pool** — one
//!    `gemm_grouped` batch over E uneven expert segments versus the
//!    back-to-back per-expert loop, and the pool versus per-call scoped
//!    thread spawning. These are the tables behind DESIGN.md's "Parallel
//!    execution" section.
//!
//! Modes: no flags runs all four sections (correctness is always asserted;
//! the NT-vs-NN gate fails the process, the other timing checks print);
//! `--grouped` runs the grouped section and turns its performance checks into
//! process-failing gates; `--smoke` is the CI variant — the two NT-gate shapes
//! of section 1 plus a reduced grouped shape set, same hard gates;
//! `--kernels` runs section 1 alone for this process's lane count (what the
//! child runs).

use std::process::{Command, ExitCode};
use std::time::Instant;

use xmoe_bench::spine::Check;
use xmoe_bench::{fmt_time, print_table};
use xmoe_tensor::{
    gemm_grouped, gemm_grouped_transpose_a, gemm_grouped_transpose_b, gemm_tier, gemm_view, matmul,
    matmul_slices, matmul_transpose_b, nt_pack_probe, pool_size, Causal, Tensor, NT_PACK_MIN_ROWS,
};

/// Print one claim as the spine formats it.
fn shape_check(claim: &str, ok: bool, detail: &str) {
    println!("{}", Check::new(claim, ok, detail.to_string()));
}

/// The old implementation: materialize `B^T`, then run the plain kernel.
fn via_materialized_transpose(a: &Tensor, b: &Tensor) -> Tensor {
    matmul(a, &b.transpose())
}

/// The scalar loops the register-tiled kernels replaced, verbatim: the
/// single-threaded reference every kernel row is checked against bit for bit
/// (`xmoe-tensor`'s own tests hold the same three as their oracle).
mod reference {
    /// NN onto a zeroed `c`: i-k-j saxpy, KB-tiled, skipping every `aik == 0.0`.
    pub fn nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        const KB: usize = 256;
        for kb0 in (0..k).step_by(KB) {
            let k_end = (kb0 + KB).min(k);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for kk in kb0..k_end {
                    let aik = a_row[kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (c, b) in c_row.iter_mut().zip(b_row) {
                        *c += aik * b;
                    }
                }
            }
        }
    }

    /// NT, `C = A·Bᵀ`: one dot product at a time, tail first, 8 lanes.
    pub fn nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        const LANES: usize = 8;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (j, cv) in c_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let a_chunks = a_row.chunks_exact(LANES);
                let b_chunks = b_row.chunks_exact(LANES);
                let mut acc = 0.0f32;
                for (av, bv) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
                    acc += av * bv;
                }
                let mut lanes = [0.0f32; LANES];
                for (ac, bc) in a_chunks.zip(b_chunks) {
                    for l in 0..LANES {
                        lanes[l] += ac[l] * bc[l];
                    }
                }
                for &lane in &lanes {
                    acc += lane;
                }
                *cv = acc;
            }
        }
    }

    /// TN onto a zeroed `c`: RB-blocked ascending reduction over segment rows.
    pub fn tn(a: &[f32], d: &[f32], c: &mut [f32], cnt: usize, ac: usize, n: usize) {
        const RB: usize = 256;
        for rb0 in (0..cnt).step_by(RB) {
            let r_end = (rb0 + RB).min(cnt);
            for i in 0..ac {
                let c_row = &mut c[i * n..(i + 1) * n];
                for r in rb0..r_end {
                    let av = a[r * ac + i];
                    if av == 0.0 {
                        continue;
                    }
                    let d_row = &d[r * n..(r + 1) * n];
                    for (cv, dv) in c_row.iter_mut().zip(d_row) {
                        *cv += av * dv;
                    }
                }
            }
        }
    }
}

fn time_min<F: FnMut() -> Tensor>(reps: usize, mut f: F) -> (f64, Tensor) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out)
}

/// Seconds per call of `f`, fastest of five samples; each sample repeats the
/// call until it spans at least a millisecond, so sub-microsecond kernels
/// (the `h = f = 8` shape) are timed as reliably as the large ones.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let inner = (1e-3 / t0.elapsed().as_secs_f64().max(1e-9)).ceil() as usize;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            t0.elapsed().as_secs_f64() / inner as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

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

/// Section 1 for this process's lane count (`smoke`: the gate shapes only).
/// Returns `false` when the NT-vs-NN gate misses; a bitwise mismatch panics.
fn kernel_table(smoke: bool) -> bool {
    const EXPERTS: usize = 8;
    let shapes = if smoke {
        &KERNEL_SHAPES[..NT_GATE_SHAPES]
    } else {
        &KERNEL_SHAPES[..]
    };
    let mut rows = Vec::new();
    let mut worst_nt_vs_nn = f64::INFINITY;
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
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
        // The scalar loops, expert by expert, over the same segment layout.
        let ref_nn = |c: &mut [f32]| {
            for (e, w) in w.iter().enumerate() {
                reference::nn(&av[seg(e, k)], w.as_slice(), &mut c[seg(e, n)], m, k, n);
            }
        };
        let ref_nt = |c: &mut [f32]| {
            for (e, wt) in wt.iter().enumerate() {
                reference::nt(&av[seg(e, k)], wt.as_slice(), &mut c[seg(e, n)], m, k, n);
            }
        };
        let ref_tn = |g: &mut [f32]| {
            for (e, block) in g.chunks_exact_mut(k * n).enumerate() {
                reference::tn(&av[seg(e, k)], &dv[seg(e, n)], block, m, k, n);
            }
        };

        // Bitwise against the scalar reference (which accumulates, so from
        // zeros): NN and NT overwrite a poisoned output, TN adds its product
        // onto zeros.
        let (mut c, mut c_ref) = (vec![f32::NAN; total * n], vec![0.0f32; total * n]);
        let (mut g, mut g_ref) = (vec![0.0f32; EXPERTS * k * n], vec![0.0f32; EXPERTS * k * n]);
        gemm_grouped(av, &counts, k, |e| w[e].as_slice(), n, &mut c);
        ref_nn(&mut c_ref);
        assert!(
            bits_equal(&c, &c_ref),
            "NN diverges from the scalar loop at {m}x{k}x{n}"
        );
        c.fill(f32::NAN);
        gemm_grouped_transpose_b(av, &counts, k, |e| wt[e].as_slice(), n, &mut c);
        ref_nt(&mut c_ref);
        assert!(
            bits_equal(&c, &c_ref),
            "NT diverges from the scalar loop at {m}x{k}x{n}"
        );
        gemm_grouped_transpose_a(av, &counts, k, dv, n, &mut g);
        ref_tn(&mut g_ref);
        assert!(
            bits_equal(&g, &g_ref),
            "TN diverges from the scalar loop at {m}x{k}x{n}"
        );

        let gflop = 2.0 * (total * k * n) as f64 / 1e9;
        let t_nn = secs_per_call(|| gemm_grouped(av, &counts, k, |e| w[e].as_slice(), n, &mut c));
        let t_nt = secs_per_call(|| {
            gemm_grouped_transpose_b(av, &counts, k, |e| wt[e].as_slice(), n, &mut c)
        });
        let t_tn = secs_per_call(|| gemm_grouped_transpose_a(av, &counts, k, dv, n, &mut g));
        let r_nn = secs_per_call(|| ref_nn(&mut c_ref));
        let r_nt = secs_per_call(|| ref_nt(&mut c_ref));
        let r_tn = secs_per_call(|| ref_tn(&mut g_ref));
        // Packing alone, all experts on this thread (a pooled NT call spreads
        // it over the lanes with the tiles, so this is an upper share).
        let t_pack = secs_per_call(|| wt.iter().for_each(|wt| nt_pack_probe(wt.as_slice(), k, n)));
        let nt_kernel = if m >= NT_PACK_MIN_ROWS {
            format!("{} / {:.0}%", fmt_time(t_pack), 100.0 * t_pack / t_nt)
        } else {
            "dot tile".into()
        };
        if i < NT_GATE_SHAPES {
            worst_nt_vs_nn = worst_nt_vs_nn.min(t_nn / t_nt);
        }
        let cell = |t: f64, r: f64| format!("{:.1} ({:.1}, {:.1}x)", gflop / t, gflop / r, r / t);
        rows.push(vec![
            format!("{EXPERTS} x {m}x{k}x{n}"),
            cell(t_nn, r_nn),
            cell(t_nt, r_nt),
            nt_kernel,
            cell(t_tn, r_tn),
        ]);
    }
    print_table(
        &format!(
            "microkernels, tier {} on {} lane(s): GFLOP/s (scalar reference on 1 lane, ratio)",
            gemm_tier(),
            pool_size()
        ),
        &[
            "experts x rows x k x n",
            "NN",
            "NT",
            "NT pack / of NT",
            "TN",
        ],
        &rows,
    );
    println!("every cell above equals the scalar loop it replaced bit for bit (asserted)");
    println!("{}", causal_view_line());
    // Held on the avx2 / avx512 tiers only: the hazard is a wide tile falling
    // out of its registers (the base tier reads ~1.0x too).
    if gemm_tier() == "base" {
        return true;
    }
    let gate = worst_nt_vs_nn >= 0.75;
    shape_check(
        "packed NT >= 0.75x NN GFLOP/s at the fine-grained backward shapes",
        gate,
        &format!(
            "worst of the first {NT_GATE_SHAPES} rows {worst_nt_vs_nn:.2}x on {} lane(s); the same \
             multiply-adds, so a halved ratio means the lane-rotating tile stopped vectorising",
            pool_size()
        ),
    );
    gate
}

/// The two strided causal NN products of `train_fine_ep2`'s attention (4
/// sequences x 4 heads of `seq 64, hd 16`, read in place at `ld = hidden`):
/// GFLOP/s of the causal half on the calling thread — `gemm_view` is serial,
/// so this is per lane at any pool size. A baseline for the next kernel PR;
/// `xmoe-train`'s attention tests hold the bits.
fn causal_view_line() -> String {
    const SEQ: usize = 64;
    const HD: usize = 16;
    const HEADS: usize = 4;
    const BATCH: usize = 4;
    let (n, hidden) = (BATCH * SEQ, HEADS * HD);
    let q = Tensor::rand_uniform(n, hidden, 1.0, 0x6E50);
    let kt = Tensor::rand_uniform(hidden, n, 1.0, 0x6E51);
    let mut p = Tensor::zeros(n * HEADS, SEQ);
    let mut o = Tensor::zeros(n, hidden);
    // (sequence, head) -> its rows in `q`/`o`, its panel in `kt`, its block of `p`.
    let head = |i: usize| {
        let (b, h) = (i / HEADS, i % HEADS);
        (
            b * SEQ * hidden + h * HD,
            h * HD * n + b * SEQ,
            i * SEQ * SEQ,
        )
    };
    let t_s = secs_per_call(|| {
        for (rows, panel, block) in (0..BATCH * HEADS).map(head) {
            gemm_view(
                false,
                (&q.as_slice()[rows..], hidden),
                (&kt.as_slice()[panel..], n),
                (&mut p.as_mut_slice()[block..], SEQ),
                (SEQ, HD, SEQ),
                Causal::LowerC,
            );
        }
    });
    let t_o = secs_per_call(|| {
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
    });
    let gflop = 2.0 * (BATCH * HEADS * HD * SEQ * (SEQ + 1) / 2) as f64 / 1e9;
    format!(
        "strided causal NN, tier {}, 1 lane, {} heads at ld {hidden}: [64, 16] x [16, 64] \
         (S = Q·Kᵀ, columns <= row) {:.1} GFLOP/s | [64, 64] x [64, 16] (O = P·V, steps <= row) \
         {:.1} GFLOP/s (of the causal half)",
        gemm_tier(),
        BATCH * HEADS,
        gflop / t_s,
        gflop / t_o
    )
}

/// Section 1: this process's lane count, then a child pinned to one lane
/// (the pool size is fixed per process).
fn kernel_section(smoke: bool) -> bool {
    println!("== bench gemm — register-tiled microkernels ==");
    let mut ok = kernel_table(smoke);
    if pool_size() > 1 {
        let exe = std::env::current_exe().expect("bench binary path");
        let mut child = Command::new(exe);
        child.arg("--kernels").env("XMOE_THREADS", "1");
        if smoke {
            child.arg("--smoke");
        }
        ok &= child
            .status()
            .expect("spawning the single-lane child")
            .success();
    }
    ok
}

fn transpose_section() {
    // (m, k, n) for C[m,n] = A[m,k] @ B[n,k]^T — backward shapes: m routed
    // rows, k the ffn/hidden width of dY, n the width being restored.
    let shapes = [
        (1024usize, 256usize, 256usize),
        (2048, 64, 512),
        (512, 512, 128),
        (4096, 128, 64),
    ];
    let reps = 3;

    println!("== bench gemm — `C = A @ B^T` without materializing B^T ==");
    let mut rows = Vec::new();
    let mut all_equal = true;
    let mut all_faster_or_even = true;
    for &(m, k, n) in &shapes {
        let a = Tensor::rand_uniform(m, k, 1.0, 0x6E44 + m as u64);
        let b = Tensor::rand_uniform(n, k, 1.0, 0x6E45 + n as u64);
        let (t_old, c_old) = time_min(reps, || via_materialized_transpose(&a, &b));
        let (t_new, c_new) = time_min(reps, || matmul_transpose_b(&a, &b));
        all_equal &= c_old.allclose(&c_new, 1e-4);
        // Wall-clock on shared CI machines is noisy; require parity within
        // 25% rather than a strict win per shape.
        all_faster_or_even &= t_new <= t_old * 1.25;
        rows.push(vec![
            format!("{m}x{k} @ ({n}x{k})^T"),
            fmt_time(t_old),
            fmt_time(t_new),
            format!("{:.2}x", t_old / t_new),
        ]);
    }
    print_table(
        "backward GEMM: materialized B^T vs transpose-free",
        &["shape", "materialize B^T", "transpose-free", "speedup"],
        &rows,
    );
    shape_check(
        "transpose-free kernel matches the materializing one",
        all_equal,
        "both must compute the same C up to fp32 rounding",
    );
    shape_check(
        "transpose-free kernel is not slower (within noise)",
        all_faster_or_even,
        "its pack is thread-local scratch, not an n*k allocation + fill per call",
    );
    println!("note: both now stream a transposed B at the tier's full width; the NT kernel packs");
    println!(
        "it per task into grow-once scratch and keeps the backward's 8-lane bits (DESIGN.md)."
    );
}

fn skip_section() {
    let shapes = [
        (1024usize, 256usize, 256usize),
        (2048, 64, 512),
        (512, 512, 128),
        (4096, 128, 64),
    ];
    // Zero operand values occur in this codebase only as whole zero rows:
    // block-sparse pad rows and the dense pipeline's under-capacity slots.
    // The scalar loop skipped every `aik == 0.0` term; the register tile
    // skips a row group whose A rows are all zero. Measure both on
    // dense-random A (nothing to skip) and on A with every other 8-row
    // group zeroed (alternating, so every lane's row chunk is half pad).
    println!();
    println!("== bench gemm — the zero skip: per-element (scalar loop) vs row-group (tile) ==");
    let mut rows = Vec::new();
    let mut all_equal = true;
    let mut padded_speedup = f64::INFINITY;
    for &(m, k, n) in &shapes {
        let dense = Tensor::rand_uniform(m, k, 1.0, 0x6E46 + m as u64);
        let mut padded = dense.clone();
        for r in (0..m).filter(|r| (r / 8) % 2 == 1) {
            padded.row_mut(r).fill(0.0);
        }
        let b = Tensor::rand_uniform(k, n, 1.0, 0x6E47 + n as u64);
        let mut t_tile = [0.0f64; 2];
        for (i, (label, a)) in [("dense", &dense), ("half the row groups zero", &padded)]
            .into_iter()
            .enumerate()
        {
            let mut c_ref = vec![0.0f32; m * n];
            reference::nn(a.as_slice(), b.as_slice(), &mut c_ref, m, k, n);
            all_equal &= bits_equal(matmul(a, &b).as_slice(), &c_ref);
            let t_ref =
                secs_per_call(|| reference::nn(a.as_slice(), b.as_slice(), &mut c_ref, m, k, n));
            let mut c = vec![0.0f32; m * n];
            t_tile[i] =
                secs_per_call(|| matmul_slices(a.as_slice(), m, k, b.as_slice(), n, &mut c));
            rows.push(vec![
                format!("{m}x{k}x{n} {label}"),
                fmt_time(t_ref),
                fmt_time(t_tile[i]),
                format!("{:.2}x", t_ref / t_tile[i]),
            ]);
        }
        padded_speedup = padded_speedup.min(t_tile[0] / t_tile[1]);
    }
    print_table(
        &format!(
            "forward GEMM: scalar zero-skip saxpy (1 lane) vs tier {} tile ({} lane(s))",
            gemm_tier(),
            pool_size()
        ),
        &["operands", "scalar reference", "register tile", "speedup"],
        &rows,
    );
    shape_check(
        "row-group skip matches the per-element skip bitwise",
        all_equal,
        "a sum of +-0.0 products formed from 0.0 is +0.0, which the skip stores",
    );
    shape_check(
        "zero rows are still ~free: half-zero A runs >= 1.5x faster than dense",
        padded_speedup >= 1.5,
        &format!(
            "worst shape {padded_speedup:.2}x; a skipped row group costs one scan of its A rows"
        ),
    );
}

/// Per-expert segments through their own back-to-back GEMM calls — what the
/// hot path did before grouped scheduling. Each call may itself use the
/// pool above the cutoff, but E small segments never fill the machine.
fn sequential_experts(
    input: &[f32],
    counts: &[usize],
    k: usize,
    w: &[&Tensor],
    n: usize,
) -> Tensor {
    let total: usize = counts.iter().sum();
    let mut c = Tensor::zeros(total, n);
    let cv = c.as_mut_slice();
    let mut off = 0usize;
    for (e, &cnt) in counts.iter().enumerate() {
        if cnt == 0 {
            continue;
        }
        matmul_slices(
            &input[off * k..(off + cnt) * k],
            cnt,
            k,
            w[e].as_slice(),
            n,
            &mut cv[off * n..(off + cnt) * n],
        );
        off += cnt;
    }
    c
}

/// One expert's worth of work: expert index, its input rows, its output rows.
type ExpertJob<'a> = (usize, &'a [f32], &'a mut [f32]);

/// Expert-level parallelism via **per-call scoped spawning** — the schedule
/// the persistent pool replaced: experts round-robined over `pool_size()`
/// fresh threads, spawned and joined on every call.
fn scoped_spawn_experts(
    input: &[f32],
    counts: &[usize],
    k: usize,
    w: &[&Tensor],
    n: usize,
) -> Tensor {
    let total: usize = counts.iter().sum();
    let mut c = Tensor::zeros(total, n);
    let lanes = pool_size().max(1);
    // Carve disjoint per-expert jobs out of the operand and output buffers.
    let mut jobs: Vec<ExpertJob> = Vec::new();
    let (mut ra, mut rc) = (input, c.as_mut_slice());
    for (e, &cnt) in counts.iter().enumerate() {
        let (sa, ta) = ra.split_at(cnt * k);
        let (sc, tc) = rc.split_at_mut(cnt * n);
        ra = ta;
        rc = tc;
        if cnt > 0 {
            jobs.push((e, sa, sc));
        }
    }
    if lanes == 1 {
        for (e, sa, sc) in jobs {
            matmul_slices(sa, sa.len() / k, k, w[e].as_slice(), n, sc);
        }
        return c;
    }
    let mut per_lane: Vec<Vec<ExpertJob>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        per_lane[i % lanes].push(job);
    }
    std::thread::scope(|s| {
        for lane in per_lane {
            s.spawn(move || {
                for (e, sa, sc) in lane {
                    matmul_slices(sa, sa.len() / k, k, w[e].as_slice(), n, sc);
                }
            });
        }
    });
    c
}

/// The grouped section. Returns `false` when a performance gate misses;
/// bitwise mismatches panic unconditionally (they are correctness bugs, not
/// noise).
fn grouped_section(smoke: bool) -> bool {
    // x[rows,256] @ w[256,256] per expert: wide enough that the gate shapes
    // below are >= 2 ms per timed call on the avx512 tier (the [rows,64] @
    // [64,128] slice this section started with is 0.1 ms there), narrow
    // enough that a 16-row segment (1 M MACs) stays below the single-GEMM
    // parallel cutoff, so the sequential loop really is serial. Experts share
    // 8 weight tensors: the schedule sees E segments, the cache sees 2 MB.
    let (k, n) = (256usize, 256usize);
    const DISTINCT_WEIGHTS: usize = 8;
    const MAX_ROWS: usize = 16 * 1024;
    let reps = if smoke { 5 } else { 3 };
    let expert_counts: &[usize] = if smoke { &[8, 256] } else { &[8, 64, 256] };
    let rows_per: &[usize] = if smoke { &[16, 64] } else { &[16, 64, 256] };
    let lanes = pool_size();
    let weights: Vec<Tensor> = (0..DISTINCT_WEIGHTS)
        .map(|e| Tensor::rand_uniform(k, n, 1.0, 0x6E51 + e as u64))
        .collect();

    println!();
    println!("== bench gemm — grouped expert GEMM on the persistent pool ==");
    println!(
        "worker pool: {lanes} lane(s), tier {}; expert FFN slice: [rows,{k}] @ [{k},{n}]",
        gemm_tier()
    );

    let mut grouped_rows = Vec::new();
    let mut scoped_rows = Vec::new();
    let mut many_small_speedup = f64::NAN;
    let mut pool_vs_scoped_many_small = f64::NAN;
    for &e_count in expert_counts {
        for &rpe in rows_per.iter().filter(|&&rpe| e_count * rpe <= MAX_ROWS) {
            // Uneven segments (±1 around rows-per-expert) so the schedule is
            // exercised on the ragged counts the router actually produces.
            let counts: Vec<usize> = (0..e_count).map(|e| rpe - 1 + (e % 3)).collect();
            let total: usize = counts.iter().sum();
            let input = Tensor::rand_uniform(total, k, 1.0, 0x6E50 + (e_count * rpe) as u64);
            let w: Vec<&Tensor> = (0..e_count)
                .map(|e| &weights[e % DISTINCT_WEIGHTS])
                .collect();
            let run_grouped = || {
                let mut c = Tensor::zeros(total, n);
                gemm_grouped(
                    input.as_slice(),
                    &counts,
                    k,
                    |e| w[e].as_slice(),
                    n,
                    c.as_mut_slice(),
                );
                c
            };
            let (t_seq, c_seq) = time_min(reps, || {
                sequential_experts(input.as_slice(), &counts, k, &w, n)
            });
            let (t_grp, c_grp) = time_min(reps, run_grouped);
            let (t_scp, c_scp) = time_min(reps, || {
                scoped_spawn_experts(input.as_slice(), &counts, k, &w, n)
            });
            assert!(
                c_seq.allclose(&c_grp, 0.0),
                "grouped GEMM diverges bitwise from the sequential loop at \
                 e={e_count} rows/expert={rpe}"
            );
            assert!(
                c_seq.allclose(&c_scp, 0.0),
                "scoped-spawn GEMM diverges bitwise at e={e_count} rows/expert={rpe}"
            );
            let label = format!("e={e_count:<3} rows/expert={rpe}");
            grouped_rows.push(vec![
                label.clone(),
                fmt_time(t_seq),
                fmt_time(t_grp),
                format!("{:.2}x", t_seq / t_grp),
            ]);
            scoped_rows.push(vec![
                label,
                fmt_time(t_scp),
                fmt_time(t_grp),
                format!("{:.2}x", t_scp / t_grp),
            ]);
            if e_count == 256 && rpe == 16 {
                many_small_speedup = t_seq / t_grp;
                pool_vs_scoped_many_small = t_scp / t_grp;
            }
        }
    }
    print_table(
        "grouped vs sequential per-expert GEMM",
        &["shape", "sequential", "grouped (pool)", "speedup"],
        &grouped_rows,
    );
    print_table(
        "persistent pool vs per-call scoped spawn",
        &["shape", "scoped spawn", "grouped (pool)", "speedup"],
        &scoped_rows,
    );

    // Dense sanity shape: one expert holding every row — the grouped entry
    // point degenerates to a single panel-split GEMM and must not lose to
    // the plain kernel beyond noise.
    let (dm, counts) = (4096usize, vec![4096usize]);
    let input = Tensor::rand_uniform(dm, k, 1.0, 0x6E52);
    let w = &weights[..1];
    let (t_dense, c_dense) = time_min(reps, || {
        let mut c = Tensor::zeros(dm, n);
        matmul_slices(
            input.as_slice(),
            dm,
            k,
            w[0].as_slice(),
            n,
            c.as_mut_slice(),
        );
        c
    });
    let (t_grp1, c_grp1) = time_min(reps, || {
        let mut c = Tensor::zeros(dm, n);
        gemm_grouped(
            input.as_slice(),
            &counts,
            k,
            |e| w[e].as_slice(),
            n,
            c.as_mut_slice(),
        );
        c
    });
    assert!(
        c_dense.allclose(&c_grp1, 0.0),
        "single-expert grouped GEMM diverges bitwise from matmul"
    );
    println!(
        "dense (e=1, {dm} rows): matmul {} vs grouped {} ({:.2}x)",
        fmt_time(t_dense),
        fmt_time(t_grp1),
        t_dense / t_grp1
    );

    let mut ok = true;
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The throughput gate binds only when real concurrency exists: >= 2
    // worker lanes AND >= 2 hardware threads to run them on. Lanes beyond
    // the core count (XMOE_THREADS oversubscription) cannot speed anything
    // up, and at one lane the grouped path IS the sequential loop.
    if lanes >= 2 && hw >= 2 {
        let gate = many_small_speedup >= 1.3;
        shape_check(
            "grouped GEMM >= 1.3x on the many-small-expert shape (e=256, rows/expert=16)",
            gate,
            &format!("measured {many_small_speedup:.2}x with {lanes} lanes on {hw} cores"),
        );
        ok &= gate;
    } else {
        println!(
            "[shape] SKIP: the >= 1.3x gate needs >= 2 lanes on >= 2 cores \
             (have {lanes} lane(s), {hw} core(s))"
        );
    }
    // The overhead gate binds at any lane count >= 2, oversubscribed or
    // not: replacing per-call spawn+join with a persistent pool must never
    // cost wall-clock beyond noise.
    if lanes >= 2 {
        let pool_gate = pool_vs_scoped_many_small >= 0.8;
        shape_check(
            "persistent pool not slower than scoped spawn (within 25% noise)",
            pool_gate,
            &format!("measured {pool_vs_scoped_many_small:.2}x on the many-small shape"),
        );
        ok &= pool_gate;
    }
    let dense_gate = t_grp1 <= t_dense * 1.25;
    shape_check(
        "grouped GEMM never worse than dense matmul (within 25% noise)",
        dense_gate,
        "a single whole-buffer expert degenerates to the same panel schedule",
    );
    ok &= dense_gate;
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let grouped_only = args.iter().any(|a| a == "--grouped");
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--kernels") {
        return if kernel_table(smoke) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let kernels_ok = grouped_only || kernel_section(smoke);
    if !grouped_only && !smoke {
        transpose_section();
        skip_section();
    }
    let grouped_ok = grouped_section(smoke);
    if !kernels_ok {
        eprintln!("bench gemm: NT-vs-NN kernel gate FAILED (see [shape] lines above)");
        return ExitCode::FAILURE;
    }
    if (grouped_only || smoke) && !grouped_ok {
        eprintln!("bench gemm: grouped-GEMM gate FAILED (see [shape] lines above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
