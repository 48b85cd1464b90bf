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

/// `C = A @ B` written into an existing output buffer.
///
/// `C` must already have shape `[a.rows, b.cols]`; its previous contents are
/// never read (the kernel's *Overwrite* store), so a recycled or
/// for-overwrite buffer needs no zero-fill first.
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

/// Slice-level [`matmul_into`]: `C = A @ B` where `a` is `m*k` row-major,
/// `b` is `k*n` and `c` is `m*n` (overwritten). Taking raw slices lets pooled
/// pipelines run segment GEMMs directly on sub-ranges of persistent workspace
/// buffers — e.g. one expert's rows of a dispatch buffer into the matching
/// rows of an activation buffer — without materializing per-segment tensors.
/// Each output row is computed independently in the same k-order as
/// [`matmul_into`], so results are bitwise identical to the tensor-level call.
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
    crate::par::par_gemm_rows(crate::par::Slab::Nn, a, m, k, b, n, c);
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

    /// Columns of a full packed NT panel: one vector register per lane set.
    const fn nt_width(self) -> usize {
        match self {
            Tier::Base => 4,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => 8,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => 16,
        }
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

/// How a finished tile meets `C` — the const store mode of [`acc_tile`]
/// (stable Rust has no enum const parameters, hence the named `bool`s). There
/// is deliberately no accumulate-through mode (`C` as the initial
/// accumulator): every caller of the old "pass a zeroed C" convention wanted
/// one of these two.
type StoreMode = bool;
/// `C = sum`: `C` is never read, so it may hold anything (a recycled or
/// NaN-poisoned for-overwrite lease). The bits of accumulating onto zeros.
const OVERWRITE: StoreMode = false;
/// `C = C + sum` with the sum formed from `0.0` first: the bits of staging the
/// product into a zeroed block and then `add_assign_slice`-ing it onto `C`,
/// without the block.
const ADD_FRESH: StoreMode = true;

/// A row-major operand read in place: element `(r, c)` is `data[r * ld + c]`.
/// `ld` may exceed the columns a product touches — one head's `hd` columns of
/// a `[rows, hidden]` activation are the view `(&t[col0..], hidden)`, one
/// sequence's columns of a transposed `[hidden, rows]` panel likewise — so a
/// kernel never needs a gathered copy of a sub-matrix.
pub type View<'a> = (&'a [f32], usize);
/// The output counterpart of [`View`]: only the product's `m x n` elements
/// are written, whatever else the slice spans.
pub type ViewMut<'a> = (&'a mut [f32], usize);

/// Which part of a product a causal (lower-triangular) operand makes
/// necessary. Bounds are taken per `MR`-row group of `C`, not per row: a
/// group covering rows `i0..i1` uses the widest range any of its rows needs,
/// so a row may see up to `MR - 1` extra terms or columns next to the
/// diagonal. Each variant says what the caller must make of those.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Causal {
    /// Every reduction step, every column.
    Full,
    /// NN where only `C[i][j]`, `j <= i`, is wanted (`S = Q·Kᵀ`): the group
    /// computes columns `0..i1`. Columns `i + 1..i1` of row `i` receive
    /// ordinary (unwanted) products, columns from `i1` on are left untouched —
    /// the caller masks or ignores both.
    LowerC,
    /// NN whose `A` is lower triangular, `A[i][s] == 0.0` for `s > i`
    /// (`O = P·V`): the group walks steps `0..i1`. Row `i` then adds
    /// `0.0 * B[s][j]` for `s` in `i + 1..i1` — `±0.0` while `B` is finite,
    /// which cannot change a sum that started at `+0.0`.
    LowerA,
    /// TN whose `A` is lower triangular, `A[s][i] == 0.0` for `s < i`
    /// (`dV = Pᵀ·dO`; `C` row `i` is `A` column `i`): the group walks steps
    /// `i0..`. Row `i` then *starts* with the `±0.0` terms of steps `i0..i`.
    LowerAt,
}

impl Causal {
    /// The reduction steps and the column count of the `C` row group
    /// `i0..i0 + rows` of a product with `steps` steps and `n` columns.
    #[inline(always)]
    fn group(
        self,
        i0: usize,
        rows: usize,
        steps: usize,
        n: usize,
    ) -> (std::ops::Range<usize>, usize) {
        match self {
            Causal::Full => (0..steps, n),
            Causal::LowerC => (0..steps, n.min(i0 + rows)),
            Causal::LowerA => (0..steps.min(i0 + rows), n),
            Causal::LowerAt => (i0.min(steps)..steps, n),
        }
    }
}

/// One `MR x NR` tile of `A·B` held in registers over a single ascending
/// walk of the reduction `steps`, then stored per `ST`: per step one
/// `NR`-wide row of `b` and `MR` scalars of `a`. `TA` selects how `a` is read
/// — `false`: row `i`, step `s` at `a[i * lda + s]` (NN); `true`: at
/// `a[s * lda + i]` (the transposed read of TN). `b` and `c` are [`View`]s
/// with leading dimensions of their own. The per-row indexed load keeps each
/// row's update in its own basic block, which is what makes the vectorizer
/// pick the `NR` direction.
#[inline(always)]
fn acc_tile<const TA: bool, const ST: StoreMode, const MR: usize, const NR: usize>(
    (a, lda): View<'_>,
    (b, ldb): View<'_>,
    (c, ldc): ViewMut<'_>,
    (i0, j0): (usize, usize),
    steps: std::ops::Range<usize>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for s in steps {
        let bv: [f32; NR] = b[s * ldb + j0..][..NR]
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
        let c_row = &mut c[(i0 + r) * ldc + j0..][..NR];
        if ST == ADD_FRESH {
            // Added by value, like `bv`: with `c_row[j] += ..` in place the
            // row loop can stay rolled, which indexes `acc` dynamically and
            // so keeps the whole tile in memory (TN at a third of its speed).
            let mut cv: [f32; NR] = (&*c_row).try_into().expect("slice of length NR");
            for j in 0..NR {
                cv[j] += acc[r][j];
            }
            c_row.copy_from_slice(&cv);
        } else {
            c_row.copy_from_slice(&acc[r]);
        }
    }
}

/// The first `n` columns of one `MR`-row group over `steps`: full `NR`
/// tiles, then the narrower ladder 16 / 8 / 4 / 1 for the ragged right edge.
#[inline(always)]
fn acc_row_group<const TA: bool, const ST: StoreMode, const MR: usize, const NR: usize>(
    a: View<'_>,
    b: View<'_>,
    (c, ldc): ViewMut<'_>,
    i0: usize,
    steps: std::ops::Range<usize>,
    n: usize,
) {
    let mut j0 = 0;
    while j0 + NR <= n {
        acc_tile::<TA, ST, MR, NR>(a, b, (c, ldc), (i0, j0), steps.clone());
        j0 += NR;
    }
    if NR > 16 && j0 + 16 <= n {
        acc_tile::<TA, ST, MR, 16>(a, b, (c, ldc), (i0, j0), steps.clone());
        j0 += 16;
    }
    if NR > 8 && j0 + 8 <= n {
        acc_tile::<TA, ST, MR, 8>(a, b, (c, ldc), (i0, j0), steps.clone());
        j0 += 8;
    }
    if j0 + 4 <= n {
        acc_tile::<TA, ST, MR, 4>(a, b, (c, ldc), (i0, j0), steps.clone());
        j0 += 4;
    }
    while j0 < n {
        acc_tile::<TA, ST, MR, 1>(a, b, (c, ldc), (i0, j0), steps.clone());
        j0 += 1;
    }
}

/// `C[m, n]` from `A·B` over `steps` reduction steps, tile by tile: `MR`-row
/// groups, then single register rows for the ragged bottom edge, each group
/// over the steps and columns `bound` leaves it ([`Causal::group`]; the
/// single rows of the bottom edge are bounded exactly).
///
/// NN skips the product of a row group whose `A` rows are entirely zero (the
/// pad rows of the dense and block-sparse pipelines; measured in `bench
/// gemm`) and stores the zeros it would have computed. The scalar loops this
/// replaced skipped every `a == 0.0` term; a sum of `±0.0` products formed
/// from `0.0` is `+0.0`, so skipping gives the same bits **except** when a
/// `B` element is non-finite (`0 * inf` is NaN) — no weight in this workspace
/// is. TN has no skip: its row group is a strided column strip of `A`, and no
/// caller passes padded segments.
#[inline(always)]
fn acc_gemm<const TA: bool, const ST: StoreMode, const MR: usize, const NR: usize>(
    (a, lda): View<'_>,
    b: View<'_>,
    (c, ldc): ViewMut<'_>,
    (m, steps, n): (usize, usize, usize),
    bound: Causal,
) {
    #[inline(always)]
    fn skip_or_tiles<const TA: bool, const ST: StoreMode, const MR: usize, const NR: usize>(
        (a, lda): View<'_>,
        b: View<'_>,
        (c, ldc): ViewMut<'_>,
        i0: usize,
        (steps, n): (std::ops::Range<usize>, usize),
    ) {
        // Only the Overwrite store skips: a skipped group's sums are all
        // `+0.0`, which it stores without computing them (AddFresh would
        // still have to add them: `-0.0 + 0.0` is `+0.0`). The test reads the
        // group's rows as one run, so a view with `lda` beyond its step
        // count only skips when what lies between its rows is zero too.
        if !TA && ST == OVERWRITE && all_zero(&a[i0 * lda..][..(MR - 1) * lda + steps.end]) {
            for r in i0..i0 + MR {
                c[r * ldc..][..n].fill(0.0);
            }
        } else {
            acc_row_group::<TA, ST, MR, NR>((a, lda), b, (c, ldc), i0, steps, n);
        }
    }
    let mut i0 = 0;
    while i0 + MR <= m {
        let of = bound.group(i0, MR, steps, n);
        skip_or_tiles::<TA, ST, MR, NR>((a, lda), b, (c, ldc), i0, of);
        i0 += MR;
    }
    while i0 < m {
        let of = bound.group(i0, 1, steps, n);
        skip_or_tiles::<TA, ST, 1, NR>((a, lda), b, (c, ldc), i0, of);
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
fn acc_gemm_avx2<const TA: bool, const ST: StoreMode>(
    a: View<'_>,
    b: View<'_>,
    c: ViewMut<'_>,
    dims: (usize, usize, usize),
    bound: Causal,
) {
    acc_gemm::<TA, ST, 4, 16>(a, b, c, dims, bound)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn acc_gemm_avx512<const TA: bool, const ST: StoreMode>(
    a: View<'_>,
    b: View<'_>,
    c: ViewMut<'_>,
    dims: (usize, usize, usize),
    bound: Causal,
) {
    acc_gemm::<TA, ST, 8, 32>(a, b, c, dims, bound)
}

/// [`acc_gemm`] on an explicit tier (tests call every supported one); `dims`
/// is `(m, steps, n)`.
fn acc_gemm_on<const TA: bool, const ST: StoreMode>(
    tier: Tier,
    a: View<'_>,
    b: View<'_>,
    c: ViewMut<'_>,
    dims: (usize, usize, usize),
    bound: Causal,
) {
    match tier {
        Tier::Base => acc_gemm::<TA, ST, 4, 8>(a, b, c, dims, bound),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Tier::Avx2` only comes out of `Tier::supported`, which
        // lists it after `is_x86_feature_detected!("avx2")`.
        Tier::Avx2 => unsafe { acc_gemm_avx2::<TA, ST>(a, b, c, dims, bound) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Tier::Avx512` only comes out of `Tier::supported`, which
        // lists it after detecting both `avx512f` and `avx512vl`.
        Tier::Avx512 => unsafe { acc_gemm_avx512::<TA, ST>(a, b, c, dims, bound) },
    }
}

/// `C = A·B` (`trans_a`: `C = Aᵀ·B`) over operands read and written in place
/// through strided [`View`]s, `C` overwritten and nothing outside its
/// `m x n` elements touched: `dims` is `(m, steps, n)`, `A` is `m x steps`
/// (`steps x m` when transposed), `B` is `steps x n`. Serial, on the calling
/// thread — this is the per-(sequence, head) product of attention, far below
/// [`crate::par`]'s cutoff.
///
/// Every `C` element is the sum, from `+0.0`, of its products in ascending
/// step order, exactly as in [`matmul_into`] — the same tile body, so the
/// same bits in every tier. `bound` prunes what a triangular operand makes
/// unnecessary; see [`Causal`] for the extra `±0.0` terms a pruned row group
/// still forms and why they need a finite `B`.
pub fn gemm_view(
    trans_a: bool,
    a: View<'_>,
    b: View<'_>,
    c: ViewMut<'_>,
    dims: (usize, usize, usize),
    bound: Causal,
) {
    gemm_view_on(Tier::dispatched(), trans_a, a, b, c, dims, bound);
}

/// [`gemm_view`] on an explicit tier (tests call every supported one).
fn gemm_view_on(
    tier: Tier,
    trans_a: bool,
    a: View<'_>,
    b: View<'_>,
    c: ViewMut<'_>,
    dims: (usize, usize, usize),
    bound: Causal,
) {
    let (m, steps, n) = dims;
    if m == 0 || n == 0 {
        return;
    }
    // Elements from a view's first to its last, `ld` apart per row.
    let span = |(rows, cols): (usize, usize), ld: usize| match rows {
        0 => 0,
        _ => (rows - 1) * ld + cols,
    };
    let a_dims = if trans_a { (steps, m) } else { (m, steps) };
    assert!(
        a.1 >= a_dims.1 && b.1 >= n && c.1 >= n,
        "gemm_view: a leading dimension is shorter than its row"
    );
    assert!(a.0.len() >= span(a_dims, a.1), "gemm_view: A too short");
    assert!(b.0.len() >= span((steps, n), b.1), "gemm_view: B too short");
    assert!(c.0.len() >= span((m, n), c.1), "gemm_view: C too short");
    match (trans_a, bound) {
        (false, Causal::LowerAt) | (true, Causal::LowerC | Causal::LowerA) => {
            panic!("gemm_view: {bound:?} does not bound a product with trans_a = {trans_a}")
        }
        (false, _) => acc_gemm_on::<false, OVERWRITE>(tier, a, b, c, dims, bound),
        (true, _) => acc_gemm_on::<true, OVERWRITE>(tier, a, b, c, dims, bound),
    }
}

/// NN microkernel entry: `rows_here` rows of `C = A @ B` starting at global
/// row `r0` of `a`, where `c_chunk` is the slice for exactly those rows
/// (overwritten, never read).
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
    let dims = (rows_here, k, n);
    acc_gemm_on::<false, OVERWRITE>(
        Tier::dispatched(),
        (a, k),
        (b, n),
        (c_chunk, n),
        dims,
        Causal::Full,
    );
}

fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, rows: usize, k: usize, n: usize) {
    gemm_rows_offset(a, b, &mut c[r0 * n..(r0 + rows) * n], r0, rows, k, n);
}

/// `C = A @ B^T` where `A` is `[m, k]` and `B` is `[n, k]`.
///
/// Used by backward passes (`dX = dY @ W^T`). Because both operands are
/// row-major, `C[i][j]` is a dot product of two *contiguous* rows, summed in
/// 8 position-determined lanes. The kernel partitions C's rows across the
/// persistent worker pool (like [`matmul_into`]); each task packs `B^T` into
/// thread-local grow-once scratch and streams it at the tier's full width
/// (from 16 rows up; shorter calls take dot products straight off `B`). It
/// replaced an implementation that materialised a fresh `B^T` allocation on
/// every backward GEMM of every step (see the `bench gemm` table in
/// DESIGN.md).
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
    crate::par::par_gemm_rows(crate::par::Slab::Nt, a, m, k, b, n, c);
}

/// Partial-sum lanes of every NT dot product. Position-determined: lane `l`
/// sums the products at `k`-positions `l, l + 8, l + 16, ...` — part of the
/// numeric contract, not a tuning knob.
const NT_LANES: usize = 8;

/// Below this many rows of `A` an NT call runs [`nt_dot_gemm`] on the
/// unpacked `B` instead of packing it: a pack moves `n * k` elements (0.25 ns
/// each) whatever the row count, the packed tile then saves ~0.015 ns per
/// multiply-add. Measured single-lane GFLOP/s, packed incl. packing vs dot
/// tile (2-core Xeon @ 2.10 GHz, avx512 tier; `bench gemm` carries a row on
/// each side): `k x n = 256x64` — 33 vs 51 at 8 rows, 47 vs 51 at 16, 60 vs
/// 52 at 32, 76 vs 52 at 128; `64x256` — 31 vs 37 at 8, 45 vs 37 at 16, 72
/// vs 37 at 128; at 1 row 6 vs 30-36. Both sides produce the same bits, so
/// how a caller chunks its rows cannot show in the result.
#[doc(hidden)] // `bench gemm` labels its NT rows with the kernel they ran
pub const NT_PACK_MIN_ROWS: usize = 16;

/// One `MR x NR` tile of `C = A·Bᵀ` straight off row-major `a` and `b`:
/// `MR * NR` independent dot products, each the scalar sum of the `k % 8` tail
/// elements first, then its 8 lanes (one SIMD register across `k`) added in
/// lane order. The short-segment kernel — see [`NT_PACK_MIN_ROWS`].
#[inline(always)]
#[allow(clippy::needless_range_loop)] // (r, j, l) index three arrays in lockstep
fn nt_dot_tile<const MR: usize, const NR: usize>(
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

/// `C[m, n] = A·Bᵀ` by [`nt_dot_tile`]; ragged edges fall to `1`-wide tiles.
#[inline(always)]
fn nt_dot_gemm<const MR: usize, const NR: usize>(
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
            nt_dot_tile::<MR, NR>(a, b, c, (i0, j0), k, n);
            j0 += NR;
        }
        while j0 < n {
            nt_dot_tile::<MR, 1>(a, b, c, (i0, j0), k, n);
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

/// The column blocks `(j0, width)` of an `n`-column NT output packed `nr`
/// wide (4, 8 or 16: [`Tier::nt_width`]): full `nr` blocks, then the narrower
/// ladder 8 / 4 / 1 for the ragged right edge (the widths [`nt_gemm`] has
/// tiles for).
fn nt_blocks(n: usize, nr: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j0 = 0;
    std::iter::from_fn(move || {
        let left = n - j0;
        let w = match left {
            0 => return None,
            _ if left >= nr => nr,
            _ if nr > 8 && left >= 8 => 8,
            _ if left >= 4 => 4,
            _ => 1,
        };
        j0 += w;
        Some((j0 - w, w))
    })
}

/// The first `len` elements of a grow-only scratch, contents unspecified.
fn grown(scratch: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    &mut scratch[..len]
}

/// Transpose `b` (`[n, k]` row-major) into the front of `packed` (grow-only,
/// for-overwrite: every element returned is written) as per-block panels:
/// block `(j0, w)` of [`nt_blocks`] becomes the contiguous `k x w` panel
/// `[j0 * k..][..k * w]` with element `(kk, j)` at `kk * w + j` — for the
/// full blocks, `btp[(jb * k + kk) * nr + j]`. Moves 4x4 sub-blocks (the
/// transpose the compiler turns into shuffles, on any tier): 0.25 ns per
/// element against 0.5-0.65 for one-element-at-a-time loops, same machine as
/// the kernel table.
fn nt_pack<'p>(b: &[f32], k: usize, n: usize, nr: usize, packed: &'p mut Vec<f32>) -> &'p [f32] {
    const T: usize = 4;
    let packed = grown(packed, n * k);
    let main = k - k % T;
    for (j0, w) in nt_blocks(n, nr) {
        let panel = &mut packed[j0 * k..][..k * w];
        if w == 1 {
            panel.copy_from_slice(&b[j0 * k..][..k]);
            continue;
        }
        for jb in (0..w).step_by(T) {
            let b_rows: [&[f32]; T] = std::array::from_fn(|j| &b[(j0 + jb + j) * k..][..k]);
            for kk0 in (0..main).step_by(T) {
                let tile: [[f32; T]; T] =
                    std::array::from_fn(|j| b_rows[j][kk0..][..T].try_into().expect("T elements"));
                for t in 0..T {
                    let out = &mut panel[(kk0 + t) * w + jb..][..T];
                    for j in 0..T {
                        out[j] = tile[j][t];
                    }
                }
            }
            for kk in main..k {
                for j in 0..T {
                    panel[kk * w + jb + j] = b_rows[j][kk];
                }
            }
        }
    }
    packed
}

/// One `MR x NR` tile of `C = A·Bᵀ` over a packed `k x NR` panel of `Bᵀ`:
/// `MR * NR` dot products, each the scalar sum of its `k % 8` tail products
/// first, then its 8 position-determined lanes added in lane order — exactly
/// the single-dot-product loop this replaced. Lane `l` of all `NR` columns is
/// one `NR`-wide register (`lanes[l][r]`), updated at the `k`-positions
/// congruent to `l` with the NN tile's broadcast-multiply-add, so there is no
/// horizontal reduction: the finish is eight vector adds.
///
/// Two codegen facts (measured on the avx512 tier): the eight lane updates
/// are spelled out with constant lane indices because indexing `lanes` with a
/// loop variable keeps the whole array in memory (1.5x *slower* than the tile
/// this replaced); and the panel is packed and walked with `chunks_exact`
/// because addressing an unpacked `Bᵀ` as `bt[(k0 + l) * n + j0..]` costs a
/// bounds check and an address spill per lane.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // (r, j) index two arrays in lockstep
fn nt_tile<const MR: usize, const NR: usize>(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    (i0, j0): (usize, usize),
    k: usize,
    n: usize,
) {
    const L: usize = NT_LANES;
    /// `acc[r][..] += a8[r][l] * panel_row[..]` for the `MR` rows.
    #[inline(always)]
    fn step<const MR: usize, const NR: usize>(
        acc: &mut [[f32; NR]; MR],
        a8: &[[f32; L]; MR],
        l: usize,
        panel_rows: &[f32],
    ) {
        let bv: [f32; NR] = panel_rows[l * NR..][..NR]
            .try_into()
            .expect("slice of length NR");
        for r in 0..MR {
            let av = a8[r][l];
            for j in 0..NR {
                acc[r][j] += av * bv[j];
            }
        }
    }
    let main = k - k % L;
    let a_rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
    let mut lanes = [[[0.0f32; NR]; MR]; L];
    for (kc, rows8) in panel[..main * NR].chunks_exact(L * NR).enumerate() {
        let a8: [[f32; L]; MR] =
            std::array::from_fn(|r| a_rows[r][kc * L..][..L].try_into().expect("L elements"));
        step(&mut lanes[0], &a8, 0, rows8);
        step(&mut lanes[1], &a8, 1, rows8);
        step(&mut lanes[2], &a8, 2, rows8);
        step(&mut lanes[3], &a8, 3, rows8);
        step(&mut lanes[4], &a8, 4, rows8);
        step(&mut lanes[5], &a8, 5, rows8);
        step(&mut lanes[6], &a8, 6, rows8);
        step(&mut lanes[7], &a8, 7, rows8);
    }
    let mut acc = [[0.0f32; NR]; MR];
    for (kk, bv) in (main..k).zip(panel[main * NR..].chunks_exact(NR)) {
        for r in 0..MR {
            let av = a_rows[r][kk];
            for j in 0..NR {
                acc[r][j] += av * bv[j];
            }
        }
    }
    for r in 0..MR {
        for lane in &lanes {
            for j in 0..NR {
                acc[r][j] += lane[r][j];
            }
        }
        c[(i0 + r) * n + j0..][..NR].copy_from_slice(&acc[r]);
    }
}

/// `C[m, n] = A·Bᵀ` over the panels [`nt_pack`] made of `b`, `NR` wide:
/// column block by column block (its panel stays cache-resident) over
/// `MR`-row groups and single rows for the ragged bottom edge. Without panels
/// (a call below [`NT_PACK_MIN_ROWS`]) the `2 x DNR` dot tile runs on `b`
/// itself.
#[inline(always)]
fn nt_gemm<const MR: usize, const NR: usize, const DNR: usize>(
    a: &[f32],
    b: &[f32],
    panels: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    #[inline(always)]
    fn block<const MR: usize, const W: usize>(
        a: &[f32],
        panel: &[f32],
        c: &mut [f32],
        j0: usize,
        (m, k, n): (usize, usize, usize),
    ) {
        let mut i0 = 0;
        while i0 + MR <= m {
            nt_tile::<MR, W>(a, panel, c, (i0, j0), k, n);
            i0 += MR;
        }
        while i0 < m {
            nt_tile::<1, W>(a, panel, c, (i0, j0), k, n);
            i0 += 1;
        }
    }
    let Some(panels) = panels else {
        return nt_dot_gemm::<2, DNR>(a, b, c, m, k, n);
    };
    for (j0, w) in nt_blocks(n, NR) {
        let panel = &panels[j0 * k..][..k * w];
        if w == NR {
            block::<MR, NR>(a, panel, c, j0, (m, k, n));
        } else if NR > 8 && w == 8 {
            block::<MR, 8>(a, panel, c, j0, (m, k, n));
        } else if NR > 4 && w == 4 {
            block::<MR, 4>(a, panel, c, j0, (m, k, n));
        } else {
            block::<MR, 1>(a, panel, c, j0, (m, k, n));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn nt_gemm_avx2(
    a: &[f32],
    b: &[f32],
    panels: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    nt_gemm::<1, { Tier::Avx2.nt_width() }, 4>(a, b, panels, c, m, k, n)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
#[allow(clippy::too_many_arguments)]
fn nt_gemm_avx512(
    a: &[f32],
    b: &[f32],
    panels: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    nt_gemm::<2, { Tier::Avx512.nt_width() }, 4>(a, b, panels, c, m, k, n)
}

std::thread_local! {
    /// This thread's packed `Bᵀ` panels: grow-once (`n * k` of the largest NT
    /// operand seen), so after warm-up packing allocates nothing. Per thread
    /// because every pool task packs the `B` of its own expert.
    static NT_PACKED: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Grow the calling thread's pack scratch to `len` elements now. The pooled
/// NT entry points call this before submitting: which lane runs which task
/// varies from call to call, so without it the submitting thread — the only
/// allocation-tracked one — could meet its largest `B` for the first time
/// long after warm-up.
pub(crate) fn nt_pack_reserve(len: usize) {
    NT_PACKED.with(|cell| {
        grown(&mut cell.borrow_mut(), len);
    });
}

/// Pack `b` (`[n, k]`) exactly as an NT call on this thread does and stop —
/// `bench gemm` times it for the kernel table's pack column.
#[doc(hidden)]
pub fn nt_pack_probe(b: &[f32], k: usize, n: usize) {
    assert_eq!(b.len(), n * k, "nt_pack_probe: B length mismatch");
    NT_PACKED.with(|cell| {
        nt_pack(
            b,
            k,
            n,
            Tier::dispatched().nt_width(),
            &mut cell.borrow_mut(),
        );
    });
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
    NT_PACKED.with(|cell| {
        let packed = &mut cell.borrow_mut();
        nt_gemm_on(Tier::dispatched(), a, b, packed, c_chunk, rows_here, k, n);
    });
}

/// [`nt_gemm`] on an explicit tier (tests call every supported one): packs
/// `b` into `packed` first unless the call is below [`NT_PACK_MIN_ROWS`].
#[allow(clippy::too_many_arguments)]
fn nt_gemm_on(
    tier: Tier,
    a: &[f32],
    b: &[f32],
    packed: &mut Vec<f32>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let panels = (m >= NT_PACK_MIN_ROWS).then(|| nt_pack(b, k, n, tier.nt_width(), packed));
    match tier {
        Tier::Base => nt_gemm::<1, { Tier::Base.nt_width() }, 2>(a, b, panels, c, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Tier::Avx2` only comes out of `Tier::supported`, which
        // lists it after `is_x86_feature_detected!("avx2")`.
        Tier::Avx2 => unsafe { nt_gemm_avx2(a, b, panels, c, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Tier::Avx512` only comes out of `Tier::supported`, which
        // lists it after detecting both `avx512f` and `avx512vl`.
        Tier::Avx512 => unsafe { nt_gemm_avx512(a, b, panels, c, m, k, n) },
    }
}

/// TN microkernel entry: `C += A^T @ D` without materialising the transpose.
/// `a` is `[cnt, ac]`, `d` is `[cnt, n]`, `C` is `[ac, n]`, accumulated into;
/// `c_chunk` holds its rows `r0..r0 + rows_here` (columns `r0..` of `a`, read
/// in place as a [`View`]), so a large `C` splits into row panels like NN's.
/// This is the weight-gradient shape (`dW = X^T @ dY`), which the training
/// backward used to compute as `matmul(&seg.transpose(), &dy)` — paying a
/// full transpose copy per expert per step.
///
/// The same register tile as NN with `A` read transposed: every `C` element
/// accumulates over segment rows in ascending order (the transposed call's
/// k dimension), so results are bitwise identical to the old
/// transpose-then-matmul schedule. Unlike NN there is no zero skip (see
/// [`acc_gemm`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_ta_rows(
    a: &[f32],
    d: &[f32],
    c_chunk: &mut [f32],
    r0: usize,
    rows_here: usize,
    cnt: usize,
    ac: usize,
    n: usize,
) {
    let a = &a[r0..];
    let dims = (rows_here, cnt, n);
    acc_gemm_on::<true, ADD_FRESH>(
        Tier::dispatched(),
        (a, ac),
        (d, n),
        (c_chunk, n),
        dims,
        Causal::Full,
    );
}

/// `C += A^T @ D` where `A` is `[k, m]`, `D` is `[k, n]` and `C` is `[m, n]`
/// — the dense weight gradient `dW += X^T dY`, with no transpose, product
/// tensor or add pass: the sibling of [`matmul_into`] and
/// [`matmul_transpose_b_into`] for the third product of a linear layer's
/// backward. Each `C` element receives its products summed from `0.0` in
/// ascending row order and then added to it (the kernel's *AddFresh* store) —
/// the bits of `add_assign(c, &matmul(&a.transpose(), d))`, whose NN zero
/// skip only ever dropped `±0.0` terms. Rows of `C` are partitioned across
/// the worker pool above the same cutoff as the other two.
pub fn matmul_transpose_a_add(a: &Tensor, d: &Tensor, c: &mut Tensor) {
    let (k, m) = a.shape();
    let (kd, n) = d.shape();
    assert_eq!(k, kd, "matmul_transpose_a_add row-count mismatch");
    assert_eq!(
        c.shape(),
        (m, n),
        "matmul_transpose_a_add output shape mismatch"
    );
    let (a, d, c) = (a.as_slice(), d.as_slice(), c.as_mut_slice());
    if !crate::par::pool().is_parallel() || m * n * k < crate::par::PAR_CUTOFF {
        gemm_ta_rows(a, d, c, 0, m, k, m, n);
        return;
    }
    crate::par::par_gemm_rows(crate::par::Slab::Ta, a, m, k, d, n, c);
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

/// Widest row [`topk_rows_into`] selects from a stack copy; wider rows (no
/// model in this workspace has more than 256 experts) take the comparator.
const TOPK_STACK: usize = 256;

/// [`topk_rows`] writing into caller-owned buffers (cleared first); `order`
/// is scratch of the comparator path. With warm buffers the call is
/// allocation-free.
///
/// The order is [`crate::routing::rank_desc`]'s: value descending, index
/// ascending, NaN after every number — total, so no score can panic the
/// selection. Rows go through [`topk_by_max_rounds`]; one it declines (it
/// holds `-inf` or too many NaNs among its top `k`, or is wider than
/// [`TOPK_STACK`]) is ranked with the comparator instead. Measured against
/// the comparator alone (2-core Xeon @ 2.10 GHz): 1024x64 top-8 1.1-1.4 ->
/// 0.50-0.62 ms, 4096x256 top-8 16.6 -> 4.7-5.0 ms; 64x32 top-6 13 us
/// against 8-15 us when a timing loop repeats one matrix (the comparator's
/// branches get memorised) and 37-45 us over a ring of 64 matrices.
pub fn topk_rows_into(
    t: &Tensor,
    k: usize,
    idx_out: &mut Vec<usize>,
    val_out: &mut Vec<f32>,
    order: &mut Vec<usize>,
) {
    let cols = t.cols();
    assert!(k <= cols, "top-{} of only {} columns", k, cols);
    idx_out.clear();
    val_out.clear();
    if k == 0 {
        return;
    }
    let mut stack = [f32::NEG_INFINITY; TOPK_STACK];
    for r in 0..t.rows() {
        let row = t.row(r);
        if cols <= TOPK_STACK && topk_by_max_rounds(row, k, &mut stack, idx_out, val_out) {
            continue;
        }
        idx_out.truncate(r * k);
        val_out.truncate(r * k);
        order.clear();
        order.extend(0..cols);
        // Partial selection: k is small (<= 16 in every paper config).
        crate::routing::select_top_desc(row, order, k);
        let top = &mut order[..k];
        top.sort_unstable_by(crate::routing::rank_desc(row));
        idx_out.extend_from_slice(top);
        val_out.extend(top.iter().map(|&i| row[i]));
    }
}

/// Append `row`'s top `k` to `idx_out` / `val_out` by `k` rounds of (lane-wise
/// vector max over a copy of the row in `stack`, first position equal to it,
/// mark it taken with `-inf`). That is exactly the ranking order as long as
/// every round's maximum is a number above `-inf` — a NaN loses every `>`, so
/// it is never a maximum; returns `false`, having appended fewer than `k`,
/// at the first round where it is not. `stack` must hold `-inf` beyond
/// `row.len()` on entry and does on return.
fn topk_by_max_rounds(
    row: &[f32],
    k: usize,
    stack: &mut [f32; TOPK_STACK],
    idx_out: &mut Vec<usize>,
    val_out: &mut Vec<f32>,
) -> bool {
    const LANES: usize = 16;
    stack[..row.len()].copy_from_slice(row);
    let left = &mut stack[..row.len().next_multiple_of(LANES)];
    for _ in 0..k {
        let mut lane_max = [f32::NEG_INFINITY; LANES];
        for chunk in left.chunks_exact(LANES) {
            for l in 0..LANES {
                // Not `f32::max`: a NaN must lose to every number.
                if chunk[l] > lane_max[l] {
                    lane_max[l] = chunk[l];
                }
            }
        }
        // Halving tree, not a 16-deep chain: the fold is most of a round's
        // latency on a 32-wide row.
        let mut half = LANES;
        while half > 1 {
            half /= 2;
            for l in 0..half {
                if lane_max[l + half] > lane_max[l] {
                    lane_max[l] = lane_max[l + half];
                }
            }
        }
        let max = lane_max[0];
        if max == f32::NEG_INFINITY {
            return false;
        }
        // `==` finds the first of a tie, `±0.0` included; the value is the
        // row's own (a `-0.0` stays `-0.0`).
        let pos = left
            .iter()
            .position(|&v| v == max)
            .expect("the maximum is an element");
        idx_out.push(pos);
        val_out.push(row[pos]);
        left[pos] = f32::NEG_INFINITY;
    }
    true
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

/// `tanh(x)` from `f32` `+ − × ÷` and clamps alone: no libm call, no fused
/// multiply-add and no branch, so a loop over it vectorizes and every ISA
/// tier, lane count and machine gives the same bits. An odd rational
/// `x·P(x²)/Q(x²)` of degree 13 over 6 (Eigen's `ptanh_float` coefficients,
/// rescaled so `P(0) = 1`): within 8 ulp of the exact `tanh` (6.17 measured
/// over every 7th `f32` in `[0, 10]`), `tanh(-x) == -tanh(x)` bit for bit,
/// `±inf → ±1`, NaN → NaN.
#[inline]
pub(crate) fn tanh(x: f32) -> f32 {
    // The first input at which the rational reaches 1.0. It is below 1 at
    // every f32 under it, so the result needs no clamp of its own, and every
    // input past it is ±1.
    const CLAMP: f32 = 7.848_315_7;
    const P: [f32; 7] = [
        1.0,
        0.130_225_55,
        0.003_036_098_8,
        1.046_750_1e-5,
        -1.758_379_2e-8,
        4.087_418e-11,
        -5.641_677e-14,
    ];
    const Q: [f32; 4] = [1.000_000_1, 0.463_558_44, 0.024_222_767, 0.000_244_866_13];
    let x = x.clamp(-CLAMP, CLAMP);
    // Below |x| = 1e-12 every x² term is under half an ulp of P(0) and Q(0),
    // so flooring |x| there leaves the result's bits alone; it keeps the x²
    // chain out of the subnormal range, where each multiply is a microcode
    // assist costing ~100 cycles.
    let s = x.abs().max(1e-12);
    let x2 = s * s;
    let p = P[0] + x2 * (P[1] + x2 * (P[2] + x2 * (P[3] + x2 * (P[4] + x2 * (P[5] + x2 * P[6])))));
    let q = Q[0] + x2 * (Q[1] + x2 * (Q[2] + x2 * Q[3]));
    x * p / q
}

/// The tanh-approximation GELU at `x` and its derivative there, from one
/// in-repo `tanh` (no libm call, the same bits on every machine): the dense
/// MLP's activation and its backward factor in one pass.
#[inline]
pub fn gelu_val_grad(x: f32) -> (f32, f32) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    let t = tanh(C * (x + 0.044715 * x * x * x));
    let sech2 = 1.0 - t * t;
    (
        0.5 * x * (1.0 + t),
        0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x),
    )
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

    /// Dense NN on tier `t`: `c[m, n]` from `a[m, k] · b[k, n]`.
    fn nn_on<const ST: StoreMode>(
        t: Tier,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        (m, k, n): (usize, usize, usize),
    ) {
        acc_gemm_on::<false, ST>(t, (a, k), (b, n), (c, n), (m, k, n), Causal::Full);
    }

    #[test]
    fn every_tier_matches_the_scalar_oracles_bitwise() {
        let tiers = Tier::supported();
        assert_eq!(*tiers.last().unwrap(), Tier::Base);
        assert_eq!(Tier::dispatched(), tiers[0]);
        let mut packed = Vec::new();
        for &m in &DIMS {
            for &k in &DIMS {
                for &n in &DIMS {
                    let seed = (m * 1_000_003 + k * 1009 + n) as u64;
                    let a = operand(m, k, seed);
                    // NN and NT overwrite: C arrives poisoned.
                    let dirty = vec![f32::NAN; m * n];

                    // NN: B is [k, n]; Overwrite == accumulate onto zeros.
                    let b = operand(k, n, seed ^ 0xB0);
                    let mut want = vec![0.0f32; m * n];
                    oracle::nn(&a, &b, &mut want, 0, m, k, n);
                    for &t in &tiers {
                        let mut got = dirty.clone();
                        nn_on::<OVERWRITE>(t, &a, &b, &mut got, (m, k, n));
                        assert_eq!(bits(&got), bits(&want), "NN {t:?} {m}x{k}x{n}");
                    }

                    // NT: B is [n, k], packed by the kernel.
                    let bt = operand(n, k, seed ^ 0xB1);
                    let mut want = dirty.clone();
                    oracle::nt(&a, &bt, &mut want, 0, m, k, n);
                    for &t in &tiers {
                        let mut got = dirty.clone();
                        nt_gemm_on(t, &a, &bt, &mut packed, &mut got, m, k, n);
                        assert_eq!(bits(&got), bits(&want), "NT {t:?} {m}x{k}x{n}");
                    }

                    // TN: A is [cnt = m, ac = k], D is [m, n], C is [k, n];
                    // AddFresh onto a non-zero C == stage into zeros, then add.
                    let d = operand(m, n, seed ^ 0xD0);
                    let c0 = Tensor::rand_uniform(k, n, 1.0, seed ^ 0xC1)
                        .as_slice()
                        .to_vec();
                    let mut staged = vec![0.0f32; k * n];
                    oracle::tn(&a, &d, &mut staged, m, k, n);
                    let mut want = c0.clone();
                    add_assign_slice(&mut want, &staged);
                    for &t in &tiers {
                        let mut got = c0.clone();
                        let dims = (k, m, n);
                        acc_gemm_on::<true, ADD_FRESH>(
                            t,
                            (&a, k),
                            (&d, n),
                            (&mut got, n),
                            dims,
                            Causal::Full,
                        );
                        assert_eq!(bits(&got), bits(&want), "TN {t:?} {m}x{k}x{n}");
                    }
                }
            }
        }
    }

    /// `data` (`rows x cols`, dense) as a strided view: column offset `off`
    /// into a buffer of row stride `ld`, `pad` everywhere else, ending at the
    /// view's last element. The view is `(&buf[off..], ld)`.
    fn embed(
        data: &[f32],
        (rows, cols): (usize, usize),
        ld: usize,
        off: usize,
        pad: f32,
    ) -> Vec<f32> {
        let mut buf =
            vec![pad; off + rows.saturating_sub(1) * ld + if rows > 0 { cols } else { 0 }];
        for r in 0..rows {
            buf[off + r * ld..][..cols].copy_from_slice(&data[r * cols..][..cols]);
        }
        buf
    }

    #[test]
    fn views_and_causal_bounds_match_the_dense_products_bitwise() {
        // The same 16^3 sweep, every operand strided (ld > cols, non-zero
        // column offset, NaN between the rows of A and B so a stray read
        // shows) and C arriving as NaN inside a frame of `KEEP`.
        const KEEP: f32 = 7.5;
        let tiers = Tier::supported();
        let zeros_where = |x: &[f32], cols: usize, zero: fn(usize, usize) -> bool| -> Vec<f32> {
            let masked = x.iter().enumerate();
            masked
                .map(|(at, &v)| if zero(at / cols, at % cols) { 0.0 } else { v })
                .collect()
        };
        for &m in &DIMS {
            for &k in &DIMS {
                for &n in &DIMS {
                    let seed = (m * 1_000_003 + k * 1009 + n) as u64;
                    let run = |t: Tier,
                               trans_a: bool,
                               (a, a_dims): (&[f32], (usize, usize)),
                               (b, steps): (&[f32], usize),
                               rows: usize,
                               bound: Causal| {
                        let a = embed(a, a_dims, a_dims.1 + 3, 2, f32::NAN);
                        let b = embed(b, (steps, n), n + 5, 1, f32::NAN);
                        let mut c = embed(&vec![f32::NAN; rows * n], (rows, n), n + 4, 3, KEEP);
                        gemm_view_on(
                            t,
                            trans_a,
                            (&a[2..], a_dims.1 + 3),
                            (&b[1..], n + 5),
                            (&mut c[3..], n + 4),
                            (rows, steps, n),
                            bound,
                        );
                        c
                    };
                    let framed =
                        |want: &[f32], rows: usize| bits(&embed(want, (rows, n), n + 4, 3, KEEP));

                    // NN, `A` is [m, k]: full, lower-triangular A, and the
                    // lower triangle of C only.
                    let a = operand(m, k, seed);
                    let b = operand(k, n, seed ^ 0xB0);
                    let a_low = zeros_where(&a, k.max(1), |i, s| s > i);
                    let (mut want, mut want_low) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
                    oracle::nn(&a, &b, &mut want, 0, m, k, n);
                    oracle::nn(&a_low, &b, &mut want_low, 0, m, k, n);
                    for &t in &tiers {
                        let tag = format!("{t:?} {m}x{k}x{n}");
                        let got = run(t, false, (&a, (m, k)), (&b, k), m, Causal::Full);
                        assert_eq!(bits(&got), framed(&want, m), "NN view {tag}");
                        let got = run(t, false, (&a_low, (m, k)), (&b, k), m, Causal::LowerA);
                        assert_eq!(bits(&got), framed(&want_low, m), "NN LowerA {tag}");
                        let got = run(t, false, (&a, (m, k)), (&b, k), m, Causal::LowerC);
                        // Row i: columns <= i are the product, columns from the
                        // end of its (at most 8-row, 8-aligned) group on keep
                        // the NaN they arrived with, the frame is untouched.
                        let mut expect = embed(&vec![f32::NAN; m * n], (m, n), n + 4, 3, KEEP);
                        for (i, j) in (0..m).flat_map(|i| (0..n).map(move |j| (i, j))) {
                            let at = 3 + i * (n + 4) + j;
                            if j <= i {
                                expect[at] = want[i * n + j];
                            } else if j < (i / MAX_TILE_ROWS + 1) * MAX_TILE_ROWS {
                                expect[at] = got[at]; // inside the group: unspecified
                            }
                        }
                        assert_eq!(bits(&got), bits(&expect), "NN LowerC {tag}");
                    }

                    // TN, `A` is [m, k] read transposed, C is [k, n]: full and
                    // with `A[s][i] == 0` for `s < i`.
                    let d = operand(m, n, seed ^ 0xD0);
                    let a_low = zeros_where(&a, k.max(1), |s, i| s < i);
                    let (mut want, mut want_low) = (vec![0.0f32; k * n], vec![0.0f32; k * n]);
                    oracle::tn(&a, &d, &mut want, m, k, n);
                    oracle::tn(&a_low, &d, &mut want_low, m, k, n);
                    for &t in &tiers {
                        let tag = format!("{t:?} {m}x{k}x{n}");
                        let got = run(t, true, (&a, (m, k)), (&d, m), k, Causal::Full);
                        assert_eq!(bits(&got), framed(&want, k), "TN view {tag}");
                        let got = run(t, true, (&a_low, (m, k)), (&d, m), k, Causal::LowerAt);
                        assert_eq!(bits(&got), framed(&want_low, k), "TN LowerAt {tag}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not bound")]
    fn gemm_view_rejects_a_bound_of_the_other_product() {
        let (a, b, mut c) = ([0.0f32; 4], [0.0f32; 4], [0.0f32; 4]);
        gemm_view(
            true,
            (&a, 2),
            (&b, 2),
            (&mut c, 2),
            (2, 2, 2),
            Causal::LowerA,
        );
    }

    #[test]
    fn matmul_transpose_a_add_is_transpose_matmul_add_on_both_sides_of_the_pool_cutoff() {
        // 40 rows stay serial; 300 rows of 96 x 80 are row panels on the pool.
        for rows in [0usize, 40, 300] {
            let a = Tensor::from_vec(rows, 96, operand(rows, 96, 41));
            let d = Tensor::from_vec(rows, 80, operand(rows, 80, 42));
            let c0 = Tensor::rand_uniform(96, 80, 1.0, 43);
            let mut want = c0.clone();
            add_assign(&mut want, &matmul(&a.transpose(), &d));
            let mut got = c0;
            matmul_transpose_a_add(&a, &d, &mut got);
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{rows} rows");
        }
    }

    #[test]
    fn store_modes_hold_on_whole_zero_row_groups_and_negative_zero() {
        // Rows 8..32 of A are zero: three skipped 8-row groups on the widest
        // tier, six 4-row groups on the others. Overwrite must store zeros
        // over the poison; AddFresh (NN has no library caller for it, the
        // generic still has to be right) must not skip the `-0.0 + 0.0` add.
        let (m, k, n) = (37usize, 19usize, 21usize);
        let mut a = Tensor::rand_uniform(m, k, 1.0, 5).as_slice().to_vec();
        a[8 * k..32 * k].fill(0.0);
        let b = operand(k, n, 6);
        let mut fresh = vec![0.0f32; m * n];
        oracle::nn(&a, &b, &mut fresh, 0, m, k, n);
        let mut added = vec![-0.0f32; m * n];
        add_assign_slice(&mut added, &fresh);
        for &t in &Tier::supported() {
            let mut got = vec![f32::NAN; m * n];
            nn_on::<OVERWRITE>(t, &a, &b, &mut got, (m, k, n));
            assert_eq!(bits(&got), bits(&fresh), "Overwrite {t:?}");
            let mut got = vec![-0.0f32; m * n];
            nn_on::<ADD_FRESH>(t, &a, &b, &mut got, (m, k, n));
            assert_eq!(bits(&got), bits(&added), "AddFresh {t:?}");
        }
    }

    #[test]
    fn row_offset_entry_points_read_the_right_rows() {
        // The pool's slab tasks pass the whole A plus a row offset.
        let (m, k, n, r0, rows) = (23usize, 19usize, 21usize, 6usize, 11usize);
        let a = operand(m, k, 1);
        let b = operand(k, n, 2);
        let bt = operand(n, k, 3);
        let (mut want, mut got) = (vec![0.0f32; rows * n], vec![f32::NAN; rows * n]);
        oracle::nn(&a, &b, &mut want, r0, rows, k, n);
        gemm_rows_offset(&a, &b, &mut got, r0, rows, k, n);
        assert_eq!(bits(&got), bits(&want));
        let mut got = vec![f32::NAN; rows * n];
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
    fn matmul_into_overwrites() {
        let a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 1.0);
        let mut c = Tensor::full(2, 2, f32::NAN);
        matmul_into(&a, &b, &mut c);
        assert!(c.allclose(&Tensor::full(2, 2, 2.0), 0.0));
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

    /// Top-k of every row by the definition: the first `k` of the full
    /// ranking.
    fn topk_by_full_sort(t: &Tensor, k: usize) -> (Vec<usize>, Vec<u32>) {
        let (mut idx, mut vals) = (Vec::new(), Vec::new());
        for r in 0..t.rows() {
            let order = crate::argsort_desc_by(t.row(r));
            idx.extend_from_slice(&order[..k]);
            vals.extend(order[..k].iter().map(|&i| t.row(r)[i].to_bits()));
        }
        (idx, vals)
    }

    #[test]
    fn topk_orders_every_float_like_the_full_ranking() {
        const NAN: f32 = f32::NAN;
        const INF: f32 = f32::INFINITY;
        let rows: Vec<Vec<f32>> = vec![
            vec![0.3, NAN, 0.9, 0.1, NAN, 0.5],     // NaN never beats a number
            vec![NAN, NAN, NAN, NAN, NAN, NAN],     // all NaN: index order
            vec![-INF, 0.2, -INF, INF, 0.2, INF],   // infinities, ties
            vec![-0.0, 0.0, -0.0, -1.0, 0.0, -2.0], // signed zeros tie by index
            vec![0.5; 6],                           // all equal
            vec![-INF; 6],                          // nothing above the mark value
            vec![NAN, -INF, 1.0, NAN, -INF, 1.0],
        ];
        for row in &rows {
            let t = Tensor::from_vec(1, row.len(), row.clone());
            for k in 0..=row.len() {
                let (idx, vals) = topk_rows(&t, k);
                let (want_idx, want_vals) = topk_by_full_sort(&t, k);
                assert_eq!(idx, want_idx, "{row:?} top-{k}");
                assert_eq!(bits(&vals), want_vals, "{row:?} top-{k}");
            }
        }
        // Ranked NaNs come after every number, in index order.
        let t = Tensor::from_vec(1, 6, rows[0].clone());
        assert_eq!(topk_rows(&t, 6).0, vec![2, 5, 0, 3, 1, 4]);
    }

    #[test]
    fn topk_matches_the_full_ranking_on_random_rows_with_ties() {
        // Widths around the 16-lane chunk and the 256-wide stack copy (300
        // takes the comparator); values quantised so ties are common.
        for (cols, seed) in [
            (1usize, 1u64),
            (15, 2),
            (16, 3),
            (33, 4),
            (64, 5),
            (256, 6),
            (300, 7),
        ] {
            let mut t = Tensor::rand_uniform(9, cols, 1.0, seed);
            for v in t.as_mut_slice() {
                *v = (*v * 8.0).round() / 8.0;
            }
            t.row_mut(4)[cols / 2] = f32::NAN;
            for k in [1, cols.min(8), cols] {
                let (idx, vals) = topk_rows(&t, k);
                let (want_idx, want_vals) = topk_by_full_sort(&t, k);
                assert_eq!(idx, want_idx, "cols {cols} top-{k}");
                assert_eq!(bits(&vals), want_vals, "cols {cols} top-{k}");
            }
        }
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
        let [a, b, c] = [-1.0, 0.0, 1.0].map(|x| gelu_val_grad(x).0);
        assert!(a < b && b < c);
        assert!(b.abs() < 1e-6);
    }

    /// One f32 ulp in the binade of `r` (the subnormal spacing below it).
    fn ulp(r: f64) -> f64 {
        let exp = ((r.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        2f64.powi(exp.max(-126) - 23)
    }

    #[test]
    fn tanh_is_within_8_ulp_odd_and_bounded_on_every_7th_pattern_of_0_to_10() {
        let (mut worst, mut worst_at) = (0.0f64, 0.0f32);
        for bits in (0..=10f32.to_bits()).step_by(7) {
            let x = f32::from_bits(bits);
            let t = tanh(x);
            let exact = (x as f64).tanh();
            let err = (t as f64 - exact).abs() / ulp(exact);
            if err > worst {
                (worst, worst_at) = (err, x);
            }
            assert!(t.abs() <= 1.0, "|tanh({x})| = {t} > 1");
            assert_eq!(
                tanh(-x).to_bits(),
                (-t).to_bits(),
                "tanh(-{x}) != -tanh({x})"
            );
        }
        println!("tanh: max {worst:.2} ulp at x = {worst_at}");
        assert!(worst <= 8.0, "tanh: {worst} ulp at x = {worst_at}");
        // Where the rational meets 1.0: every pattern, not every 7th.
        for bits in 7f32.to_bits()..=10f32.to_bits() {
            let x = f32::from_bits(bits);
            assert!(tanh(x) <= 1.0, "tanh({x}) = {} > 1", tanh(x));
        }
    }

    #[test]
    fn tanh_maps_signed_zeros_infinities_and_nan() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert!(tanh(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_grad_matches_a_central_difference_of_its_value() {
        // The tanh argument reaches the clamp at |x| ≈ 4.82: the sweep crosses
        // it on both sides of zero, and ±4.8 / ±4.85 sit either side of it.
        let points = (-180..=180)
            .map(|i| i as f32 * 0.05)
            .chain([-4.85, -4.8, 4.8, 4.85]);
        for x in points {
            let h = 1e-2f32;
            let (lo, hi) = (x - h, x + h);
            let fd = (gelu_val_grad(hi).0 as f64 - gelu_val_grad(lo).0 as f64) / (hi - lo) as f64;
            let grad = gelu_val_grad(x).1 as f64;
            assert!(
                (grad - fd).abs() <= 1e-3,
                "gelu'({x}) = {grad}, central difference {fd}"
            );
        }
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
