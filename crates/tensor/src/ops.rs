//! Dense tensor operations: blocked multi-threaded GEMM, activations and the
//! row-wise reductions used by MoE gating.

use crate::Tensor;

/// `C = A @ B` where `A` is `[m, k]` and `B` is `[k, n]`.
///
/// Rows of `C` are partitioned across the persistent worker pool
/// ([`crate::par`]); each lane runs a register-blocked microkernel over `B`
/// panels. For the problem sizes in this workspace (token buffers of a few
/// thousand rows by a few hundred columns) this stays within a factor of a
/// few of BLAS without any per-call thread spawns.
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

/// Microkernel: accumulate `rows_here` rows of C starting at global row `r0`,
/// where `c_chunk` is the slice for exactly those rows.
pub(crate) fn gemm_rows_offset(
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
                // Measured in `bench gemm`: dense-neutral (the always-false
                // branch predicts perfectly; ~1.0x geomean) and ~2x on the
                // zero-padded rows of the block-sparse/dense pipelines.
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                // The compiler auto-vectorizes this saxpy.
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aik * bv;
                }
            }
        }
    }
}

fn gemm_rows(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, rows: usize, k: usize, n: usize) {
    gemm_rows_offset(a, b, &mut c[r0 * n..(r0 + rows) * n], r0, rows, k, n);
}

/// `C = A @ B^T` where `A` is `[m, k]` and `B` is `[n, k]`.
///
/// Used by backward passes (`dX = dY @ W^T`). Because both operands are
/// row-major, `C[i][j]` is a dot product of two *contiguous* rows — no
/// transpose is ever needed. The kernel partitions C's rows across scoped
/// threads (like [`matmul_into`]) and tiles the B rows so a panel of them
/// stays in cache while one A row streams through; this replaced an
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

/// Microkernel for `C = A @ B^T`: `c_chunk` holds rows `r0..r0+rows_here` of
/// C. Each dot product is split into `LANES` independent partial sums — a
/// single accumulator is a strict-FP dependency chain the compiler may not
/// vectorize, whereas fixed lanes map straight onto SIMD mul-adds. The lane
/// layout is position-determined, so results are bit-deterministic for a
/// given `k` (though not the naive left-to-right summation order).
pub(crate) fn gemm_tb_rows(
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

/// Microkernel for `C += A^T @ D` without materialising the transpose: `a`
/// is `[cnt, ac]`, `d` is `[cnt, n]`, `c` is `[ac, n]`, accumulated into.
/// This is the per-expert weight-gradient shape (`dW = X^T @ dY`), which the
/// training backward used to compute as `matmul(&seg.transpose(), &dy)` —
/// paying a full transpose copy per expert per step.
///
/// Loop order mirrors [`gemm_rows_offset`] applied to the materialised
/// transpose exactly — `RB`-blocked ascending reduction over segment rows
/// (the transposed call's k dimension), `i` over output rows inside each
/// block, same zero-skip — so results are bitwise identical to the old
/// transpose-then-matmul schedule.
pub(crate) fn gemm_ta_rows(a: &[f32], d: &[f32], c: &mut [f32], cnt: usize, ac: usize, n: usize) {
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

/// [`silu`] on a raw slice, usable on a sub-range of a pooled buffer.
pub fn silu_slice(xs: &mut [f32]) {
    for v in xs {
        *v *= 1.0 / (1.0 + (-*v).exp());
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
