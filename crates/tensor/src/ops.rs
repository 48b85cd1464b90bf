//! Dense tensor operations: register-tiled multi-threaded GEMM, activations
//! and the row-wise reductions used by MoE gating.

use std::sync::OnceLock;

use crate::Tensor;

/// `C = A @ B` where `A` is `[m, k]` and `B` is `[k, n]`.
///
/// Rows of `C` are partitioned across the persistent worker pool
/// ([`crate::par`]); each lane runs the register-tiled microkernel of the
/// detected ISA tier ([`gemm_tier`]: an `MR x NR` tile of `C` held in
/// registers over one ascending walk of `k` — 4x8 on baseline x86-64, 4x16
/// under AVX2, 8x32 under AVX-512). For the problem sizes in this workspace
/// (token buffers of a few thousand rows by a few hundred columns) this
/// stays within a factor of a few of BLAS without any per-call thread
/// spawns, packing or scratch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut c);
    c
}

/// `C += A @ B` accumulating into an existing output buffer.
///
/// `C` must already have shape `[a.rows, b.cols]`. Accumulation (rather than
/// overwrite) is what the training backward passes need; callers wanting a
/// fresh product should pass a zeroed `C` (as [`matmul`] does).
pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "matmul inner-dim mismatch: A is {}x{}, B is {}x{}",
        m, k, kb, n
    );
    assert_eq!(c.shape(), (m, n), "matmul output shape mismatch");
    matmul_slices(a.as_slice(), m, k, b.as_slice(), n, c.as_mut_slice());
}

/// Slice-level [`matmul_into`]: `C += A @ B` where `a` is `m*k` row-major,
/// `b` is `k*n` and `c` is `m*n`. Taking raw slices lets pooled pipelines run
/// segment GEMMs directly on sub-ranges of persistent workspace buffers —
/// e.g. one expert's rows of a dispatch buffer into the matching rows of an
/// activation buffer — without materializing per-segment tensors. Each output
/// row is computed independently in the same k-order as [`matmul_into`], so
/// results are bitwise identical to the tensor-level call.
pub fn matmul_slices(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_slices: A length mismatch");
    assert_eq!(b.len(), k * n, "matmul_slices: B length mismatch");
    assert_eq!(c.len(), m * n, "matmul_slices: C length mismatch");
    if m == 0 || n == 0 {
        return;
    }

    if !crate::par::pool().is_parallel() || m * n * k < crate::par::PAR_CUTOFF {
        gemm_rows(a, b, c, 0, m, k, n);
        return;
    }
    crate::par::par_gemm_rows(a, m, k, b, n, c, false);
}

// ---------------------------------------------------------------------------
// The microkernel family
// ---------------------------------------------------------------------------
//
// One safe-Rust generic body per product shape, instantiated once per ISA
// tier: for the compile target, under `avx2` and under `avx512f,avx512vl`,
// picked by CPU detection resolved once. This is the CPU analogue of the
// paper's one-source cross-platform kernels. Every C element sees the same
// sequence of separate multiply-then-add operations in every tier (no fused
// multiply-add, no split sums), so the tiers agree with each other, with the
// scalar loops they replaced and with any `XMOE_THREADS` bit for bit.

/// The instruction-set tier a kernel instantiation is compiled for. Private
/// to this module: the only way to obtain a non-`Base` value is
/// [`Tier::supported`], which is what the `#[target_feature]` call sites
/// below rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    /// The compile target's baseline (SSE2 on x86-64).
    Base,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// Every tier this CPU can run, widest first.
    fn supported() -> Vec<Tier> {
        let mut tiers = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                tiers.push(Tier::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                tiers.push(Tier::Avx2);
            }
        }
        tiers.push(Tier::Base);
        tiers
    }

    /// The widest supported tier, detected on first use.
    fn dispatched() -> Tier {
        static TIER: OnceLock<Tier> = OnceLock::new();
        *TIER.get_or_init(|| Tier::supported()[0])
    }

    fn name(self) -> &'static str {
        match self {
            Tier::Base => "base",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => "avx512",
        }
    }
}

/// Name of the ISA tier every GEMM in this process runs on (`"base"`,
/// `"avx2"` or `"avx512"`): detected, never chosen. Bench tables stamp it
/// next to `worker_threads` so kernel numbers are comparable across machines.
pub fn gemm_tier() -> &'static str {
    Tier::dispatched().name()
}

/// Row groups never exceed this many rows in any tier; the schedulers in
/// [`crate::par`] round panel heights up to it so panels end on a tile edge.
pub(crate) const MAX_TILE_ROWS: usize = 8;

/// One `MR x NR` tile of `C += A·B` held in registers over a single ascending
/// walk of the `steps` reduction steps: per step one `NR`-wide row of `b` and
/// `MR` scalars of `a`. `TA` selects how `a` is read — `false`: row `i`,
/// step `s` at `a[i * lda + s]` (NN); `true`: at `a[s * lda + i]` (the
/// transposed read of TN). The per-row indexed load keeps each row's update
/// in its own basic block, which is what makes the vectorizer pick the `NR`
/// direction.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn acc_tile<const TA: bool, const MR: usize, const NR: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    (i0, j0): (usize, usize),
    steps: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..MR {
        acc[r].copy_from_slice(&c[(i0 + r) * n + j0..][..NR]);
    }
    for s in 0..steps {
        let bv: [f32; NR] = b[s * n + j0..][..NR]
            .try_into()
            .expect("slice of length NR");
        for r in 0..MR {
            let av = a[if TA {
                s * lda + i0 + r
            } else {
                (i0 + r) * lda + s
            }];
            for j in 0..NR {
                acc[r][j] += av * bv[j];
            }
        }
    }
    for r in 0..MR {
        c[(i0 + r) * n + j0..][..NR].copy_from_slice(&acc[r]);
    }
}

/// All column tiles of one `MR`-row group: full `NR` tiles, then the
/// narrower ladder 16 / 8 / 4 / 1 for the ragged right edge.
#[inline(always)]
fn acc_row_group<const TA: bool, const MR: usize, const NR: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    i0: usize,
    steps: usize,
    n: usize,
) {
    let mut j0 = 0;
    while j0 + NR <= n {
        acc_tile::<TA, MR, NR>(a, lda, b, c, (i0, j0), steps, n);
        j0 += NR;
    }
    if NR > 16 && j0 + 16 <= n {
        acc_tile::<TA, MR, 16>(a, lda, b, c, (i0, j0), steps, n);
        j0 += 16;
    }
    if NR > 8 && j0 + 8 <= n {
        acc_tile::<TA, MR, 8>(a, lda, b, c, (i0, j0), steps, n);
        j0 += 8;
    }
    if j0 + 4 <= n {
        acc_tile::<TA, MR, 4>(a, lda, b, c, (i0, j0), steps, n);
        j0 += 4;
    }
    while j0 < n {
        acc_tile::<TA, MR, 1>(a, lda, b, c, (i0, j0), steps, n);
        j0 += 1;
    }
}

/// `C[m, n] += A·B` over `steps` reduction steps, tile by tile: `MR`-row
/// groups, then single register rows for the ragged bottom edge.
///
/// NN skips a row group whose `A` rows are entirely zero (the pad rows of the
/// dense and block-sparse pipelines; measured in `bench gemm`). The scalar
/// loops this replaced skipped every `a == 0.0` term; skipping or adding a
/// `±0.0` product gives the same bits **except** when the `C` element already
/// holds `-0.0` (adding `+0.0` turns it into `+0.0`) or the `B` element is
/// non-finite (`0 * inf` is NaN) — no buffer in this workspace is either.
/// TN has no skip: its row group is a strided column strip of `A`, and no
/// caller passes padded segments.
#[inline(always)]
fn acc_gemm<const TA: bool, const MR: usize, const NR: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    steps: usize,
    n: usize,
) {
    let skip = |i0: usize, rows: usize| !TA && all_zero(&a[i0 * lda..(i0 + rows) * lda]);
    let mut i0 = 0;
    while i0 + MR <= m {
        if !skip(i0, MR) {
            acc_row_group::<TA, MR, NR>(a, lda, b, c, i0, steps, n);
        }
        i0 += MR;
    }
    while i0 < m {
        if !skip(i0, 1) {
            acc_row_group::<TA, 1, NR>(a, lda, b, c, i0, steps, n);
        }
        i0 += 1;
    }
}

/// Is every element `±0.0`? Branch-free 64-element blocks (they vectorize)
/// with an exit between blocks: a dense row group leaves after the first
/// block, a pad group costs one pass over its `A` rows.
#[inline(always)]
fn all_zero(xs: &[f32]) -> bool {
    xs.chunks(64)
        .all(|block| block.iter().fold(0, |m, v| m | (v.to_bits() << 1)) == 0)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn acc_gemm_avx2<const TA: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    steps: usize,
    n: usize,
) {
    acc_gemm::<TA, 4, 16>(a, lda, b, c, m, steps, n)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
#[allow(clippy::too_many_arguments)]
fn acc_gemm_avx512<const TA: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    steps: usize,
    n: usize,
) {
    acc_gemm::<TA, 8, 32>(a, lda, b, c, m, steps, n)
}

/// [`acc_gemm`] on an explicit tier (tests call every supported one).
#[allow(clippy::too_many_arguments)]
fn acc_gemm_on<const TA: bool>(
    tier: Tier,
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    steps: usize,
    n: usize,
) {
    match tier {
        Tier::Base => acc_gemm::<TA, 4, 8>(a, lda, b, c, m, steps, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Tier::Avx2` only comes out of `Tier::supported`, which
        // lists it after `is_x86_feature_detected!("avx2")`.
        Tier::Avx2 => unsafe { acc_gemm_avx2::<TA>(a, lda, b, c, m, steps, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Tier::Avx512` only comes out of `Tier::supported`, which
        // lists it after detecting both `avx512f` and `avx512vl`.
        Tier::Avx512 => unsafe { acc_gemm_avx512::<TA>(a, lda, b, c, m, steps, n) },
    }
}

/// NN microkernel entry: accumulate `rows_here` rows of `C += A @ B` starting
/// at global row `r0` of `a`, where `c_chunk` is the slice for exactly those
/// rows.
pub(crate) fn gemm_rows_offset(
    a: &[f32],
    b: &[f32],
    c_chunk: &mut [f32],
    r0: usize,
    rows_here: usize,
    k: usize,
    n: usize,
) {
    let a = &a[r0 * k..(r0 + rows_here) * k];
    acc_gemm_on::<false>(Tier::dispatched(), a, k, b, c_chunk, rows_here, k, n);
}

fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, rows: usize, k: usize, n: usize) {
    gemm_rows_offset(a, b, &mut c[r0 * n..(r0 + rows) * n], r0, rows, k, n);
}

/// `C = A @ B^T` where `A` is `[m, k]` and `B` is `[n, k]`.
///
/// Used by backward passes (`dX = dY @ W^T`). Because both operands are
/// row-major, `C[i][j]` is a dot product of two *contiguous* rows — no
/// transpose is ever needed. The kernel partitions C's rows across the
/// persistent worker pool (like [`matmul_into`]) and computes a small tile of
/// dot products at once so their add chains overlap; this replaced an
/// implementation that materialised a fresh `B^T` allocation on every
/// backward GEMM of every step (see the `bench gemm` table in DESIGN.md).
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(a.rows(), b.rows());
    matmul_transpose_b_into(a, b, &mut c);
    c
}

/// `C = A @ B^T` written (overwritten, not accumulated) into an existing
/// `[m, n]` output — the workspace-pooled form of [`matmul_transpose_b`].
pub fn matmul_transpose_b_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "matmul_transpose_b inner-dim mismatch");
    assert_eq!(
        c.shape(),
        (m, n),
        "matmul_transpose_b output shape mismatch"
    );
    matmul_transpose_b_slices(a.as_slice(), m, k, b.as_slice(), n, c.as_mut_slice());
}

/// Slice-level [`matmul_transpose_b_into`]: `C = A @ B^T` on raw row-major
/// slices (`a` is `m*k`, `b` is `n*k`, `c` is `m*n`, overwritten). Like
/// [`matmul_slices`], this lets pooled backward passes run segment GEMMs on
/// sub-ranges of workspace buffers; each output element is an independent
/// dot product, so results are bitwise identical to the tensor-level call.
pub fn matmul_transpose_b_slices(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    c: &mut [f32],
) {
    assert_eq!(
        a.len(),
        m * k,
        "matmul_transpose_b_slices: A length mismatch"
    );
    assert_eq!(
        b.len(),
        n * k,
        "matmul_transpose_b_slices: B length mismatch"
    );
    assert_eq!(
        c.len(),
        m * n,
        "matmul_transpose_b_slices: C length mismatch"
    );
    if m == 0 || n == 0 || k == 0 {
        c.fill(0.0);
        return;
    }
    if !crate::par::pool().is_parallel() || m * n * k < crate::par::PAR_CUTOFF {
        gemm_tb_rows(a, b, c, 0, m, k, n);
        return;
    }
    crate::par::par_gemm_rows(a, m, k, b, n, c, true);
}

/// Partial-sum lanes of every NT dot product. Position-determined: lane `l`
/// sums the products at `k`-positions `l, l + 8, l + 16, ...` — part of the
/// numeric contract, not a tuning knob.
const NT_LANES: usize = 8;

/// One `MR x NR` tile of `C = A·Bᵀ`: `MR * NR` independent dot products, each
/// the scalar sum of the `k % 8` tail elements first, then its 8 lanes added
/// in lane order — exactly the single-dot-product loop this replaced, with
/// enough independent add chains in flight to hide their latency.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // (r, j, l) index three arrays in lockstep
fn nt_tile<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    (i0, j0): (usize, usize),
    k: usize,
    n: usize,
) {
    const L: usize = NT_LANES;
    let main = k - k % L;
    let a_rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
    let b_rows: [&[f32]; NR] = std::array::from_fn(|j| &b[(j0 + j) * k..][..k]);
    let mut acc = [[0.0f32; NR]; MR];
    for kk in main..k {
        for r in 0..MR {
            for j in 0..NR {
                acc[r][j] += a_rows[r][kk] * b_rows[j][kk];
            }
        }
    }
    let mut lanes = [[[0.0f32; L]; NR]; MR];
    for k0 in (0..main).step_by(L) {
        let av: [[f32; L]; MR] =
            std::array::from_fn(|r| a_rows[r][k0..k0 + L].try_into().expect("L elements"));
        let bv: [[f32; L]; NR] =
            std::array::from_fn(|j| b_rows[j][k0..k0 + L].try_into().expect("L elements"));
        for r in 0..MR {
            for j in 0..NR {
                for l in 0..L {
                    lanes[r][j][l] += av[r][l] * bv[j][l];
                }
            }
        }
    }
    // Pin the lane-major layout in memory between the k-loop and the
    // cross-lane reduction: without it the vectorizer seeds from the
    // reduction's `NR`-direction stores and, for some tile shapes, turns the
    // k-loop into gathers (3-8 GFLOP/s instead of 45).
    let lanes = std::hint::black_box(lanes);
    for r in 0..MR {
        for l in 0..L {
            for j in 0..NR {
                acc[r][j] += lanes[r][j][l];
            }
        }
        c[(i0 + r) * n + j0..][..NR].copy_from_slice(&acc[r]);
    }
}

/// `C[m, n] = A·Bᵀ` tile by tile; ragged edges fall to `1`-wide tiles.
#[inline(always)]
fn nt_gemm<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    #[inline(always)]
    fn row_group<const MR: usize, const NR: usize>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        k: usize,
        n: usize,
    ) {
        let mut j0 = 0;
        while j0 + NR <= n {
            nt_tile::<MR, NR>(a, b, c, (i0, j0), k, n);
            j0 += NR;
        }
        while j0 < n {
            nt_tile::<MR, 1>(a, b, c, (i0, j0), k, n);
            j0 += 1;
        }
    }
    let mut i0 = 0;
    while i0 + MR <= m {
        row_group::<MR, NR>(a, b, c, i0, k, n);
        i0 += MR;
    }
    while i0 < m {
        row_group::<1, NR>(a, b, c, i0, k, n);
        i0 += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn nt_gemm_avx2(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    nt_gemm::<2, 4>(a, b, c, m, k, n)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn nt_gemm_avx512(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    nt_gemm::<2, 4>(a, b, c, m, k, n)
}

/// NT microkernel entry: `c_chunk` holds rows `r0..r0+rows_here` of
/// `C = A @ B^T` (overwritten). The 8-lane layout is position-determined, so
/// results are bit-deterministic for a given `k` (though not the naive
/// left-to-right summation order).
pub(crate) fn gemm_tb_rows(
    a: &[f32],
    b: &[f32],
    c_chunk: &mut [f32],
    r0: usize,
    rows_here: usize,
    k: usize,
    n: usize,
) {
    let a = &a[r0 * k..(r0 + rows_here) * k];
    nt_gemm_on(Tier::dispatched(), a, b, c_chunk, rows_here, k, n);
}

/// [`nt_gemm`] on an explicit tier (tests call every supported one).
fn nt_gemm_on(tier: Tier, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    match tier {
        Tier::Base => nt_gemm::<2, 2>(a, b, c, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Tier::Avx2` only comes out of `Tier::supported`, which
        // lists it after `is_x86_feature_detected!("avx2")`.
        Tier::Avx2 => unsafe { nt_gemm_avx2(a, b, c, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Tier::Avx512` only comes out of `Tier::supported`, which
        // lists it after detecting both `avx512f` and `avx512vl`.
        Tier::Avx512 => unsafe { nt_gemm_avx512(a, b, c, m, k, n) },
    }
}

/// TN microkernel entry: `C += A^T @ D` without materialising the transpose.
/// `a` is `[cnt, ac]`, `d` is `[cnt, n]`, `c` is `[ac, n]`, accumulated into.
/// This is the per-expert weight-gradient shape (`dW = X^T @ dY`), which the
/// training backward used to compute as `matmul(&seg.transpose(), &dy)` —
/// paying a full transpose copy per expert per step.
///
/// The same register tile as NN with `A` read transposed: every `C` element
/// accumulates over segment rows in ascending order (the transposed call's
/// k dimension), so results are bitwise identical to the old
/// transpose-then-matmul schedule. Unlike NN there is no zero skip (see
/// [`acc_gemm`]).
pub(crate) fn gemm_ta_rows(a: &[f32], d: &[f32], c: &mut [f32], cnt: usize, ac: usize, n: usize) {
    acc_gemm_on::<true>(Tier::dispatched(), a, ac, d, c, ac, cnt, n);
}

/// Numerically stable row-wise softmax, in place.
pub fn softmax_rows(t: &mut Tensor) {
    let cols = t.cols();
    if cols == 0 {
        return;
    }
    for r in 0..t.rows() {
        let row = t.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Per-row top-k: returns flat `(indices, values)`, each of length
/// `rows * k` with row `r`'s selections at `[r*k .. (r+1)*k]`, ordered by
/// descending value (ties broken by lower index, so results are
/// deterministic). The flat layout replaces the former `Vec<Vec<_>>` return,
/// which cost `2*rows` heap allocations per gating call.
pub fn topk_rows(t: &Tensor, k: usize) -> (Vec<usize>, Vec<f32>) {
    let mut idx_out = Vec::new();
    let mut val_out = Vec::new();
    let mut order = Vec::new();
    topk_rows_into(t, k, &mut idx_out, &mut val_out, &mut order);
    (idx_out, val_out)
}

/// [`topk_rows`] writing into caller-owned buffers (cleared first); `order`
/// is selection scratch. With warm buffers the call is allocation-free.
///
/// The selection comparator totally orders candidate indices (value
/// descending, then index ascending — no two candidates compare equal), so
/// the in-place unstable sort used here is deterministic and agrees bitwise
/// with a stable sort under the same comparator.
pub fn topk_rows_into(
    t: &Tensor,
    k: usize,
    idx_out: &mut Vec<usize>,
    val_out: &mut Vec<f32>,
    order: &mut Vec<usize>,
) {
    assert!(k <= t.cols(), "top-{} of only {} columns", k, t.cols());
    idx_out.clear();
    val_out.clear();
    for r in 0..t.rows() {
        let row = t.row(r);
        order.clear();
        order.extend(0..t.cols());
        // Partial selection: k is small (<= 16 in every paper config).
        order.select_nth_unstable_by(k.saturating_sub(1).min(t.cols() - 1), |&a, &b| {
            row[b].partial_cmp(&row[a]).unwrap().then(a.cmp(&b))
        });
        let top = &mut order[..k];
        top.sort_unstable_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap().then(a.cmp(&b)));
        idx_out.extend_from_slice(top);
        val_out.extend(top.iter().map(|&i| row[i]));
    }
}

/// SiLU (x * sigmoid(x)) applied in place — the expert activation used by
/// DeepSeek-style FFNs.
pub fn silu(t: &mut Tensor) {
    silu_slice(t.as_mut_slice());
}

/// [`silu`] on a raw slice, usable on a sub-range of a pooled buffer. Like
/// [`silu_into`] and [`silu_grad_slice`], large buffers are chunked over the
/// worker pool; the pass is elementwise, so any lane count gives the same
/// bits.
pub fn silu_slice(xs: &mut [f32]) {
    crate::par::par_elementwise(xs, &[], |xs, _| {
        for v in xs {
            *v *= 1.0 / (1.0 + (-*v).exp());
        }
    });
}

/// Out-of-place [`silu_slice`]: `dst[i] = silu(src[i])`, the same expression
/// (same bits) without the copy pass a clone-then-activate would pay.
pub fn silu_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "silu_into length mismatch");
    crate::par::par_elementwise(dst, src, |dst, src| {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = x * (1.0 / (1.0 + (-x).exp()));
        }
    });
}

/// SiLU backward: `d[i] *= silu'(pre[i])` where `pre` is the pre-activation.
pub fn silu_grad_slice(d: &mut [f32], pre: &[f32]) {
    assert_eq!(d.len(), pre.len(), "silu_grad_slice length mismatch");
    crate::par::par_elementwise(d, pre, |d, pre| {
        for (d, &x) in d.iter_mut().zip(pre) {
            let s = 1.0 / (1.0 + (-x).exp());
            *d *= s * (1.0 + x * (1.0 - s));
        }
    });
}

/// tanh-approximation GELU, in place.
pub fn gelu(t: &mut Tensor) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for v in t.as_mut_slice() {
        let x = *v;
        *v = 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh());
    }
}

/// ReLU in place.
pub fn relu(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = v.max(0.0);
    }
}

/// `a += b` elementwise; shapes must match.
pub fn add_assign(a: &mut Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// `a *= s` elementwise.
pub fn scale_assign(a: &mut Tensor, s: f32) {
    for x in a.as_mut_slice() {
        *x *= s;
    }
}

/// `dst[i] += w * src[i]` over a row slice, unrolled into 8 independent
/// lanes so the compiler maps it onto SIMD mul-adds. Unlike the dot-product
/// microkernel above, every element here is an *independent* accumulation —
/// no cross-lane reduction — so the lane layout is bitwise identical to the
/// naive scalar loop for any length. This is the replica-merge/combine
/// kernel of the RBD pipeline.
pub fn axpy_slice(dst: &mut [f32], w: f32, src: &[f32]) {
    const LANES: usize = 8;
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    let d_chunks = dst.chunks_exact_mut(LANES);
    let s_chunks = src.chunks_exact(LANES);
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d += w * s;
    }
    let d_chunks = dst.chunks_exact_mut(LANES);
    let s_chunks = src.chunks_exact(LANES);
    for (dc, sc) in d_chunks.zip(s_chunks) {
        for l in 0..LANES {
            dc[l] += w * sc[l];
        }
    }
}

/// `dst[i] += src[i]` over a row slice, 8-lane unrolled; bitwise identical
/// to the scalar loop (independent elements, no reduction).
pub fn add_assign_slice(dst: &mut [f32], src: &[f32]) {
    const LANES: usize = 8;
    assert_eq!(dst.len(), src.len(), "add_assign length mismatch");
    let d_chunks = dst.chunks_exact_mut(LANES);
    let s_chunks = src.chunks_exact(LANES);
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d += s;
    }
    let d_chunks = dst.chunks_exact_mut(LANES);
    let s_chunks = src.chunks_exact(LANES);
    for (dc, sc) in d_chunks.zip(s_chunks) {
        for l in 0..LANES {
            dc[l] += sc[l];
        }
    }
}

/// Append `w * src[i]` for every element of `src` to `dst` (the replica
/// return staging kernel): reserve-then-extend in 8-lane blocks. Values are
/// identical to `dst.extend(src.iter().map(|v| w * v))`.
pub fn scaled_extend(dst: &mut Vec<f32>, w: f32, src: &[f32]) {
    const LANES: usize = 8;
    dst.reserve(src.len());
    let chunks = src.chunks_exact(LANES);
    let rem = chunks.remainder();
    for sc in chunks {
        let mut lanes = [0.0f32; LANES];
        for l in 0..LANES {
            lanes[l] = w * sc[l];
        }
        dst.extend_from_slice(&lanes);
    }
    for &s in rem {
        dst.push(w * s);
    }
}

/// The combine-weight backward kernel shared by the training paths:
/// returns `<dy, y>` and scales `dy *= w` in one pass.
///
/// Deliberately a *scalar sequential* loop: the dot product is a cross-lane
/// reduction, and the bitwise-pinned training trajectories forbid
/// reassociating it. Only the elementwise half would vectorise, which is not
/// worth splitting the fused pass for.
pub fn dot_and_scale(dy: &mut [f32], y: &[f32], w: f32) -> f32 {
    debug_assert_eq!(dy.len(), y.len(), "dot_and_scale length mismatch");
    let mut dot = 0.0f32;
    for (dv, yv) in dy.iter_mut().zip(y) {
        dot += *dv * yv;
        *dv *= w;
    }
    dot
}

/// The three scalar loops the register-tiled kernels replaced, kept verbatim
/// as the bit-for-bit reference of the sweep below.
#[cfg(test)]
mod oracle {
    pub fn nn(
        a: &[f32],
        b: &[f32],
        c_chunk: &mut [f32],
        r0: usize,
        rows_here: usize,
        k: usize,
        n: usize,
    ) {
        // i-k-j loop order: streams B rows sequentially, C row stays hot.
        const KB: usize = 256;
        for kb0 in (0..k).step_by(KB) {
            let k_end = (kb0 + KB).min(k);
            for i in 0..rows_here {
                let a_row = &a[(r0 + i) * k..(r0 + i + 1) * k];
                let c_row = &mut c_chunk[i * n..(i + 1) * n];
                for kk in kb0..k_end {
                    let aik = a_row[kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (cv, bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aik * bv;
                    }
                }
            }
        }
    }

    pub fn nt(
        a: &[f32],
        b: &[f32],
        c_chunk: &mut [f32],
        r0: usize,
        rows_here: usize,
        k: usize,
        n: usize,
    ) {
        const LANES: usize = 8;
        for i in 0..rows_here {
            let a_row = &a[(r0 + i) * k..(r0 + i + 1) * k];
            let c_row = &mut c_chunk[i * n..(i + 1) * n];
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

    pub fn tn(a: &[f32], d: &[f32], c: &mut [f32], cnt: usize, ac: usize, n: usize) {
        const RB: usize = 256;
        for rb0 in (0..cnt).step_by(RB) {
            let r_end = (rb0 + RB).min(cnt);
            for i in 0..ac {
                let c_row = &mut c[i * n..(i + 1) * n];
                for r in rb0..r_end {
                    // A^T[i][r] without the copy.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every dimension class a tile edge can meet: empty, below / at / above
    /// each tile width (4, 8, 16, 32), the NT lane count, and past the old
    /// loops' 256-wide k block.
    const DIMS: [usize; 16] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65, 257];

    /// Random operand with exact zeros sprinkled in and every fifth row
    /// entirely zero (the pad-row pattern the row-group skip exists for).
    fn operand(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut t = Tensor::rand_uniform(rows, cols, 1.0, seed);
        for r in 0..rows {
            for (j, v) in t.row_mut(r).iter_mut().enumerate() {
                if r % 5 == 3 || (r * 31 + j * 17) % 11 == 0 {
                    *v = 0.0;
                }
            }
        }
        t.as_slice().to_vec()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_tier_matches_the_scalar_oracles_bitwise() {
        let tiers = Tier::supported();
        assert_eq!(*tiers.last().unwrap(), Tier::Base);
        assert_eq!(Tier::dispatched(), tiers[0]);
        for &m in &DIMS {
            for &k in &DIMS {
                for &n in &DIMS {
                    let seed = (m * 1_000_003 + k * 1009 + n) as u64;
                    let a = operand(m, k, seed);
                    // Accumulate onto a non-zero C (NN, TN); NT overwrites it.
                    let c0 = Tensor::rand_uniform(m, n, 1.0, seed ^ 0xC0)
                        .as_slice()
                        .to_vec();

                    // NN: B is [k, n].
                    let b = operand(k, n, seed ^ 0xB0);
                    let mut want = c0.clone();
                    oracle::nn(&a, &b, &mut want, 0, m, k, n);
                    for &t in &tiers {
                        let mut got = c0.clone();
                        acc_gemm_on::<false>(t, &a, k, &b, &mut got, m, k, n);
                        assert_eq!(bits(&got), bits(&want), "NN {t:?} {m}x{k}x{n}");
                    }

                    // NT: B is [n, k].
                    let bt = operand(n, k, seed ^ 0xB1);
                    let mut want = c0.clone();
                    oracle::nt(&a, &bt, &mut want, 0, m, k, n);
                    for &t in &tiers {
                        let mut got = c0.clone();
                        nt_gemm_on(t, &a, &bt, &mut got, m, k, n);
                        assert_eq!(bits(&got), bits(&want), "NT {t:?} {m}x{k}x{n}");
                    }

                    // TN: A is [cnt = m, ac = k], D is [m, n], C is [k, n].
                    let d = operand(m, n, seed ^ 0xD0);
                    let c0 = Tensor::rand_uniform(k, n, 1.0, seed ^ 0xC1)
                        .as_slice()
                        .to_vec();
                    let mut want = c0.clone();
                    oracle::tn(&a, &d, &mut want, m, k, n);
                    for &t in &tiers {
                        let mut got = c0.clone();
                        acc_gemm_on::<true>(t, &a, k, &d, &mut got, k, m, n);
                        assert_eq!(bits(&got), bits(&want), "TN {t:?} {m}x{k}x{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_offset_entry_points_read_the_right_rows() {
        // The pool's slab tasks pass the whole A plus a row offset.
        let (m, k, n, r0, rows) = (23usize, 19usize, 21usize, 6usize, 11usize);
        let a = operand(m, k, 1);
        let b = operand(k, n, 2);
        let bt = operand(n, k, 3);
        let c0 = Tensor::rand_uniform(rows, n, 1.0, 4).as_slice().to_vec();
        let (mut want, mut got) = (c0.clone(), c0.clone());
        oracle::nn(&a, &b, &mut want, r0, rows, k, n);
        gemm_rows_offset(&a, &b, &mut got, r0, rows, k, n);
        assert_eq!(bits(&got), bits(&want));
        let (mut want, mut got) = (c0.clone(), c0);
        oracle::nt(&a, &bt, &mut want, r0, rows, k, n);
        gemm_tb_rows(&a, &bt, &mut got, r0, rows, k, n);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn gemm_tier_names_the_dispatched_tier() {
        assert!(["base", "avx2", "avx512"].contains(&gemm_tier()));
        assert_eq!(gemm_tier(), Tier::dispatched().name());
    }

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let (_, n) = b.shape();
        let mut c = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Tensor::rand_uniform(7, 5, 1.0, 1);
        let b = Tensor::rand_uniform(5, 9, 1.0, 2);
        assert!(matmul(&a, &b).allclose(&naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_matches_naive_threaded_sizes() {
        let a = Tensor::rand_uniform(130, 70, 1.0, 3);
        let b = Tensor::rand_uniform(70, 90, 1.0, 4);
        assert!(matmul(&a, &b).allclose(&naive_matmul(&a, &b), 1e-3));
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::rand_uniform(12, 12, 1.0, 5);
        let id = Tensor::from_fn(12, 12, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(matmul(&a, &id).allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_zero_dims() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(5, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
    }

    #[test]
    #[should_panic(expected = "inner-dim mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn matmul_into_accumulates() {
        let a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 1.0);
        let mut c = Tensor::full(2, 2, 10.0);
        matmul_into(&a, &b, &mut c);
        assert!(c.allclose(&Tensor::full(2, 2, 12.0), 1e-6));
    }

    #[test]
    fn matmul_transpose_b_matches_explicit() {
        let a = Tensor::rand_uniform(20, 30, 1.0, 6);
        let b = Tensor::rand_uniform(25, 30, 1.0, 7);
        let expected = matmul(&a, &b.transpose());
        assert!(matmul_transpose_b(&a, &b).allclose(&expected, 1e-4));
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_threaded_sizes() {
        // Big enough to take the multi-threaded path and exercise k-blocking.
        let a = Tensor::rand_uniform(150, 300, 1.0, 8);
        let b = Tensor::rand_uniform(90, 300, 1.0, 9);
        let expected = matmul(&a, &b.transpose());
        assert!(matmul_transpose_b(&a, &b).allclose(&expected, 1e-3));
    }

    #[test]
    fn matmul_transpose_b_zero_dims() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(3, 5);
        assert_eq!(matmul_transpose_b(&a, &b).shape(), (0, 3));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        softmax_rows(&mut t);
        for r in 0..2 {
            let s: f32 = t.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(t.get(r, 2) > t.get(r, 1) && t.get(r, 1) > t.get(r, 0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut t = Tensor::from_vec(1, 3, vec![1000.0, 1000.0, 999.0]);
        softmax_rows(&mut t);
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
        assert!((t.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn topk_selects_largest_in_order() {
        let t = Tensor::from_vec(1, 5, vec![0.1, 0.9, 0.3, 0.7, 0.5]);
        let (idx, vals) = topk_rows(&t, 3);
        assert_eq!(idx, vec![1, 3, 4]);
        assert_eq!(vals, vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn topk_breaks_ties_deterministically() {
        let t = Tensor::from_vec(1, 4, vec![0.5, 0.5, 0.5, 0.5]);
        let (idx, _) = topk_rows(&t, 2);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn topk_full_width_is_argsort() {
        let t = Tensor::from_vec(1, 4, vec![0.2, 0.8, 0.4, 0.6]);
        let (idx, _) = topk_rows(&t, 4);
        assert_eq!(idx, vec![1, 3, 2, 0]);
    }

    #[test]
    fn topk_flat_layout_over_multiple_rows() {
        let t = Tensor::from_vec(2, 3, vec![0.1, 0.9, 0.3, 0.8, 0.2, 0.7]);
        let (idx, vals) = topk_rows(&t, 2);
        assert_eq!(idx, vec![1, 2, 0, 2]);
        assert_eq!(vals, vec![0.9, 0.3, 0.8, 0.7]);
    }

    #[test]
    fn topk_into_reuses_warm_buffers() {
        let t = Tensor::rand_uniform(9, 6, 1.0, 17);
        let (idx, vals) = topk_rows(&t, 3);
        let (mut i2, mut v2, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        topk_rows_into(&t, 3, &mut i2, &mut v2, &mut scratch);
        assert_eq!(idx, i2);
        assert_eq!(vals, v2);
        // Second call with dirty buffers must clear, not append.
        topk_rows_into(&t, 3, &mut i2, &mut v2, &mut scratch);
        assert_eq!(idx, i2);
    }

    #[test]
    fn matmul_slices_segment_equals_tensor_call() {
        // A pooled segment GEMM on a sub-range must be bitwise identical to
        // the tensor-level per-segment call it replaces.
        let big = Tensor::rand_uniform(12, 5, 1.0, 30);
        let w = Tensor::rand_uniform(5, 7, 1.0, 31);
        let seg = big.slice_rows(4, 9);
        let expected = matmul(&seg, &w);
        let mut out = Tensor::zeros(12, 7);
        matmul_slices(
            &big.as_slice()[4 * 5..9 * 5],
            5,
            5,
            w.as_slice(),
            7,
            &mut out.as_mut_slice()[4 * 7..9 * 7],
        );
        assert!(out.slice_rows(4, 9).max_abs_diff(&expected) == 0.0);
    }

    #[test]
    fn matmul_transpose_b_slices_segment_equals_tensor_call() {
        let big = Tensor::rand_uniform(10, 6, 1.0, 32);
        let w = Tensor::rand_uniform(8, 6, 1.0, 33);
        let seg = big.slice_rows(2, 7);
        let expected = matmul_transpose_b(&seg, &w);
        let mut out = Tensor::zeros(10, 8);
        matmul_transpose_b_slices(
            &big.as_slice()[2 * 6..7 * 6],
            5,
            6,
            w.as_slice(),
            8,
            &mut out.as_mut_slice()[2 * 8..7 * 8],
        );
        assert!(out.slice_rows(2, 7).max_abs_diff(&expected) == 0.0);
    }

    #[test]
    fn silu_known_values() {
        let mut t = Tensor::from_vec(1, 2, vec![0.0, 10.0]);
        silu(&mut t);
        assert!(t.get(0, 0).abs() < 1e-6);
        assert!((t.get(0, 1) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn silu_passes_match_the_scalar_expressions_on_both_sides_of_the_pool_cutoff() {
        // 1000 elements run inline, 40_000 are chunked over the pool.
        for len in [0usize, 1000, 40_000] {
            let x = Tensor::rand_uniform(1, len, 4.0, 77).as_slice().to_vec();
            let want: Vec<f32> = x.iter().map(|&v| v * (1.0 / (1.0 + (-v).exp()))).collect();
            let mut in_place = x.clone();
            silu_slice(&mut in_place);
            let mut out = vec![f32::NAN; len];
            silu_into(&x, &mut out);
            assert_eq!(bits(&in_place), bits(&want));
            assert_eq!(bits(&out), bits(&want));

            let d0 = Tensor::rand_uniform(1, len, 1.0, 78).as_slice().to_vec();
            let want: Vec<f32> = d0
                .iter()
                .zip(&x)
                .map(|(&d, &v)| {
                    let s = 1.0 / (1.0 + (-v).exp());
                    d * (s * (1.0 + v * (1.0 - s)))
                })
                .collect();
            let mut d = d0;
            silu_grad_slice(&mut d, &x);
            assert_eq!(bits(&d), bits(&want));
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut t = Tensor::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        relu(&mut t);
        assert_eq!(t.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_monotone_near_origin() {
        let mut t = Tensor::from_vec(1, 3, vec![-1.0, 0.0, 1.0]);
        gelu(&mut t);
        assert!(t.get(0, 0) < t.get(0, 1) && t.get(0, 1) < t.get(0, 2));
        assert!(t.get(0, 1).abs() < 1e-6);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        add_assign(&mut a, &b);
        scale_assign(&mut a, 0.5);
        assert!(a.allclose(&Tensor::full(2, 2, 1.5), 1e-6));
    }
}
