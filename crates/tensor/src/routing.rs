//! Routing kernels: the CPU analogues of X-MoE's Triton gather/scatter and
//! the sequential GEMM over uneven expert segments (paper §4.1.2, §B.4), plus
//! the small array utilities Listing 1's PFT construction is written in.

use crate::Tensor;

/// Below this many output elements the row kernels here ([`gather_rows_into`],
/// [`combine_backward_rows`]) run inline instead of chunking over the pool.
const ROWS_PAR_CUTOFF: usize = 1 << 14;

/// Gather kernel (paper §4.1.2): `out[i, :] = src[token_ids[i], :]`, the
/// way a dispatch buffer is assembled from the gating output, into a
/// caller-owned destination resized (grow-only capacity) to
/// `[token_ids.len(), src.cols()]`. Each row copy is a contiguous row-major
/// memcpy — the CPU equivalent of the paper's coalesced per-block vector
/// copy. With a warm workspace tensor the call is allocation-free; large
/// gathers run on the persistent worker pool ([`crate::par`]) as disjoint
/// row-chunk memcpy tasks, which is trivially bitwise identical to the
/// serial copy.
pub fn gather_rows_into(src: &Tensor, token_ids: &[usize], out: &mut Tensor) {
    let cols = src.cols();
    // For-overwrite: every output row is copied below.
    out.resize_for_overwrite(token_ids.len(), cols);
    let pool = crate::par::pool();
    if !pool.is_parallel() || token_ids.len() * cols < ROWS_PAR_CUTOFF {
        for (i, &t) in token_ids.iter().enumerate() {
            out.row_mut(i).copy_from_slice(src.row(t));
        }
        return;
    }
    let chunk = token_ids
        .len()
        .div_ceil(pool.size().min(token_ids.len().max(1)));
    struct GatherCtx<'a> {
        src: &'a Tensor,
        ids: &'a [usize],
        out: crate::par::DisjointMut<'a>,
        cols: usize,
        chunk: usize,
    }
    fn gather_task(g: &GatherCtx<'_>, c: usize) {
        let i0 = c * g.chunk;
        let ids = &g.ids[i0..(i0 + g.chunk).min(g.ids.len())];
        // SAFETY: chunks tile the output rows disjointly, one task each.
        let rows = unsafe { g.out.slice(i0 * g.cols, ids.len() * g.cols) };
        for (i, &t) in ids.iter().enumerate() {
            rows[i * g.cols..(i + 1) * g.cols].copy_from_slice(g.src.row(t));
        }
    }
    let tasks = token_ids.len().div_ceil(chunk);
    let ctx = GatherCtx {
        src,
        ids: token_ids,
        out: crate::par::DisjointMut::new(out.as_mut_slice()),
        cols,
        chunk,
    };
    pool.for_each(&ctx, tasks, gather_task);
}

/// Backward of the combine stage in one pass, in place: for every routed
/// entry `i`, first `d_w[i] = <d_out[token_ids[i], :], y[i, :]>` (the gradient
/// of its combine weight), then row `i` of `y` is overwritten with
/// `d_y[i, :] = weights[i] * d_out[token_ids[i], :]` (the gradient of expert
/// output row `i`) — the expert outputs are dead once their dot is formed, so
/// their buffer carries the gradient. `d_w` is resized to `y`'s row count;
/// `d_out[t]` and `y[i]` are each read once, nothing is staged.
///
/// Each dot product is one scalar add chain in ascending column order from
/// `0.0` — the bitwise-pinned training trajectories forbid reassociating it —
/// but rows are independent: four rows' chains are interleaved to hide the
/// add latency, and row chunks run on the worker pool above the gather's
/// cutoff. Any chunking gives the same bits.
pub fn combine_backward_rows(
    d_out: &Tensor,
    token_ids: &[usize],
    y: &mut Tensor,
    weights: &[f32],
    d_w: &mut Vec<f32>,
) {
    let (rows, cols) = y.shape();
    assert_eq!(rows, token_ids.len(), "combine backward: y rows != ids");
    assert_eq!(rows, weights.len(), "combine backward: y rows != weights");
    assert_eq!(cols, d_out.cols(), "combine backward: hidden-dim mismatch");
    d_w.clear();
    d_w.resize(rows, 0.0);

    let pool = crate::par::pool();
    if !pool.is_parallel() || rows * cols < ROWS_PAR_CUTOFF {
        let y = y.as_mut_slice();
        return combine_backward_chunk::<4>(d_out, token_ids, weights, 0, cols, y, d_w);
    }
    struct Ctx<'a> {
        d_out: &'a Tensor,
        ids: &'a [usize],
        weights: &'a [f32],
        y: crate::par::DisjointMut<'a>,
        d_w: crate::par::DisjointMut<'a>,
        cols: usize,
        chunk: usize,
    }
    fn task(g: &Ctx<'_>, c: usize) {
        let cols = g.cols;
        let i0 = c * g.chunk;
        let n = g.chunk.min(g.ids.len() - i0);
        // SAFETY: chunks tile the rows disjointly, one task each; `y` is
        // carved by row range and `d_w` by the same range of elements.
        let (y, d_w) = unsafe { (g.y.slice(i0 * cols, n * cols), g.d_w.slice(i0, n)) };
        combine_backward_chunk::<4>(g.d_out, g.ids, g.weights, i0, cols, y, d_w);
    }
    let chunk = rows.div_ceil(pool.size()).next_multiple_of(4);
    let ctx = Ctx {
        d_out,
        ids: token_ids,
        weights,
        y: crate::par::DisjointMut::new(y.as_mut_slice()),
        d_w: crate::par::DisjointMut::new(d_w),
        cols,
        chunk,
    };
    pool.for_each(&ctx, rows.div_ceil(chunk), task);
}

/// Rows `i0..i0 + d_w.len()` (`y`'s rows, `cols` wide) of
/// [`combine_backward_rows`], `R` rows at a time (their `R` dot-product chains
/// advance in lockstep), then one at a time.
fn combine_backward_chunk<const R: usize>(
    d_out: &Tensor,
    ids: &[usize],
    weights: &[f32],
    i0: usize,
    cols: usize,
    y: &mut [f32],
    d_w: &mut [f32],
) {
    let full = d_w.len() - d_w.len() % R;
    if R > 1 && full < d_w.len() {
        let (head, tail) = y.split_at_mut(full * cols);
        let (w_head, w_tail) = d_w.split_at_mut(full);
        combine_backward_chunk::<R>(d_out, ids, weights, i0, cols, head, w_head);
        return combine_backward_chunk::<1>(d_out, ids, weights, i0 + full, cols, tail, w_tail);
    }
    for (g, (y, d_w)) in y
        .chunks_exact_mut(R * cols)
        .zip(d_w.chunks_exact_mut(R))
        .enumerate()
    {
        let i = i0 + g * R;
        let grad: [&[f32]; R] = std::array::from_fn(|r| d_out.row(ids[i + r]));
        d_w.copy_from_slice(&dot_rows(
            grad,
            std::array::from_fn(|r| &y[r * cols..][..cols]),
        ));
        for (r, y) in y.chunks_exact_mut(cols).enumerate() {
            for (d, &gv) in y.iter_mut().zip(grad[r]) {
                *d = weights[i + r] * gv;
            }
        }
    }
}

/// `⟨grad[r], y[r]⟩` for `R` row pairs at once: each a sequential sum over
/// the columns in order from `0.0` — the combine backward's expression, the
/// `R` sums interleaved only to hide the add latency.
#[inline(always)]
fn dot_rows<const R: usize>(grad: [&[f32]; R], y: [&[f32]; R]) -> [f32; R] {
    // Every row cut to one length up front, so the loop runs unchecked.
    let cols = y[0].len();
    let (grad, y) = (grad.map(|g| &g[..cols]), y.map(|y| &y[..cols]));
    let mut dot = [0.0f32; R];
    for c in 0..cols {
        for r in 0..R {
            dot[r] += grad[r][c] * y[r][c];
        }
    }
    dot
}

/// `d_w[i] = ⟨d_out[ids[i]], y_i⟩` for the `cols`-wide rows `y_i` of `y`
/// (`d_out` row-major, `cols` wide): the combine-weight gradients of
/// [`combine_backward_rows`], bit for bit, without its `d_y` — what the
/// grouped GEMM's dot sink computes over rows it has just made.
pub(crate) fn combine_dots(d_out: &[f32], ids: &[usize], y: &[f32], cols: usize, d_w: &mut [f32]) {
    const R: usize = 8;
    let row = |t: usize| &d_out[t * cols..][..cols];
    let y_row = |i: usize| &y[i * cols..][..cols];
    let full = d_w.len() - d_w.len() % R;
    let (head, tail) = d_w.split_at_mut(full);
    for (g, d_w) in head.chunks_exact_mut(R).enumerate() {
        let grad: [&[f32]; R] = std::array::from_fn(|r| row(ids[g * R + r]));
        d_w.copy_from_slice(&dot_rows(grad, std::array::from_fn(|r| y_row(g * R + r))));
    }
    for (i, d_w) in (full..).zip(tail) {
        *d_w = dot_rows([row(ids[i])], [y_row(i)])[0];
    }
}

/// Scatter-accumulate kernel (paper §4.1.2):
/// `out[token_ids[i], :] += src[i, :] * combine_weights[i]`.
///
/// This is the combine stage: expert outputs are routed back to their
/// original sequence positions, scaled by the gating confidence, and summed
/// over the k experts that processed each token. `out` must be pre-sized to
/// `[S, H]`. Accumulation is sequential over `i` because multiple source rows
/// may target the same output row (k > 1).
pub fn scatter_rows_scaled(
    src: &Tensor,
    token_ids: &[usize],
    combine_weights: &[f32],
    out: &mut Tensor,
) {
    assert_eq!(
        src.rows(),
        token_ids.len(),
        "scatter: src rows != token_ids len"
    );
    assert_eq!(
        src.rows(),
        combine_weights.len(),
        "scatter: src rows != weights len"
    );
    assert_eq!(src.cols(), out.cols(), "scatter: hidden-dim mismatch");
    for i in 0..src.rows() {
        let w = combine_weights[i];
        let dst = token_ids[i];
        // Per-row accumulation is elementwise (no cross-lane reduction), so
        // the 8-lane kernel is bitwise identical to a scalar loop.
        crate::ops::axpy_slice(out.row_mut(dst), w, src.row(i));
    }
}

/// [`scatter_rows_scaled`] with all-ones weights:
/// `out[token_ids[i], :] += src[i, :]`.
///
/// The gradient scatter in the backward pass uses unit weights (the chain
/// rule's combine-weight factor is applied upstream); this variant avoids
/// materialising a `vec![1.0; b]` per step.
pub fn scatter_rows_unit(src: &Tensor, token_ids: &[usize], out: &mut Tensor) {
    assert_eq!(
        src.rows(),
        token_ids.len(),
        "scatter: src rows != token_ids len"
    );
    assert_eq!(src.cols(), out.cols(), "scatter: hidden-dim mismatch");
    for (i, &dst) in token_ids.iter().enumerate() {
        crate::ops::add_assign_slice(out.row_mut(dst), src.row(i));
    }
}

/// Sequential GEMM (paper §B.4): multiply each expert's contiguous token
/// segment by that expert's weight matrix, with no padding.
///
/// `input` is `[B_exp, in_dim]` where rows are grouped by expert;
/// `tokens_per_expert[e]` gives the length of expert `e`'s segment;
/// `weights[e]` is `[in_dim, out_dim]`. Returns `[B_exp, out_dim]`.
pub fn sequential_gemm(input: &Tensor, tokens_per_expert: &[usize], weights: &[Tensor]) -> Tensor {
    assert_eq!(
        tokens_per_expert.len(),
        weights.len(),
        "sequential_gemm: {} expert segments but {} weight matrices",
        tokens_per_expert.len(),
        weights.len()
    );
    let total: usize = tokens_per_expert.iter().sum();
    assert_eq!(
        total,
        input.rows(),
        "sequential_gemm: segment sum != input rows"
    );
    let out_dim = weights.first().map_or(0, |w| w.cols());
    let mut out = Tensor::zeros(total, out_dim);
    let mut row = 0usize;
    for (e, &cnt) in tokens_per_expert.iter().enumerate() {
        if cnt == 0 {
            continue;
        }
        let seg = input.slice_rows(row, row + cnt);
        let prod = crate::ops::matmul(&seg, &weights[e]);
        out.as_mut_slice()[row * out_dim..(row + cnt) * out_dim].copy_from_slice(prod.as_slice());
        row += cnt;
    }
    out
}

/// The ranking order of this crate — [`argsort_desc_into`],
/// [`select_top_desc`] and [`crate::topk_rows_into`]: does index `a` of `keys`
/// rank before index `b`? Value descending, then index ascending; a NaN ranks
/// after every number, NaNs among themselves by index. A total order for any
/// input (a diverged router's NaN score cannot panic a sort) that equals
/// `partial_cmp` on numbers.
pub(crate) fn rank_desc(keys: &[f32]) -> impl Fn(&usize, &usize) -> std::cmp::Ordering + '_ {
    |&a, &b| {
        let (x, y) = (keys[a], keys[b]);
        y.partial_cmp(&x)
            .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
            .then(a.cmp(&b))
    }
}

/// Indices that would sort `keys` in descending order (stable: ties keep
/// their original relative order, making token dropping deterministic).
pub fn argsort_desc_by(keys: &[f32]) -> Vec<usize> {
    let mut idx = Vec::new();
    argsort_desc_into(keys, &mut idx);
    idx
}

/// [`argsort_desc_by`] into a caller-owned index buffer (cleared first).
///
/// Uses an in-place unstable sort: the comparator breaks key ties by index,
/// so no two elements compare equal and the result is identical to the
/// stable sort — without the stable sort's temporary allocation. NaN keys
/// sort last, in index order.
pub fn argsort_desc_into(keys: &[f32], idx: &mut Vec<usize>) {
    idx.clear();
    idx.extend(0..keys.len());
    idx.sort_unstable_by(rank_desc(keys));
}

/// Reorder `idx` (distinct indices into `keys`) so that its first `keep`
/// entries are the `keep` that [`argsort_desc_into`] would rank first among
/// them, in unspecified order — an O(len) selection instead of the sort.
pub fn select_top_desc(keys: &[f32], idx: &mut [usize], keep: usize) {
    if keep > 0 && keep < idx.len() {
        idx.select_nth_unstable_by(keep - 1, rank_desc(keys));
    }
}

/// Histogram of `values` into `bins` buckets; values must be `< bins`.
pub fn histogram(values: &[usize], bins: usize) -> Vec<usize> {
    let mut h = vec![0usize; bins];
    for &v in values {
        assert!(v < bins, "histogram value {} out of {} bins", v, bins);
        h[v] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`gather_rows_into`] into a fresh tensor.
    fn gathered(src: &Tensor, ids: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        gather_rows_into(src, ids, &mut out);
        out
    }

    #[test]
    fn gather_reorders_rows() {
        let src = Tensor::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let out = gathered(&src, &[3, 0, 0]);
        assert_eq!(out.row(0), &[6.0, 7.0]);
        assert_eq!(out.row(1), &[0.0, 1.0]);
        assert_eq!(out.row(2), &[0.0, 1.0]);
    }

    #[test]
    fn gather_large_parallel_path() {
        let src = Tensor::rand_uniform(500, 64, 1.0, 1);
        let ids: Vec<usize> = (0..500).rev().collect();
        let out = gathered(&src, &ids);
        for i in 0..500 {
            assert_eq!(out.row(i), src.row(499 - i));
        }
    }

    #[test]
    fn gather_empty_ids() {
        let src = Tensor::rand_uniform(3, 4, 1.0, 2);
        let out = gathered(&src, &[]);
        assert_eq!(out.shape(), (0, 4));
    }

    #[test]
    fn scatter_accumulates_multiple_sources() {
        // Two expert outputs for the same token are weighted-summed.
        let src = Tensor::from_vec(2, 2, vec![1.0, 1.0, 2.0, 2.0]);
        let mut out = Tensor::zeros(1, 2);
        scatter_rows_scaled(&src, &[0, 0], &[0.5, 0.25], &mut out);
        assert_eq!(out.row(0), &[1.0, 1.0]); // 0.5*1 + 0.25*2
    }

    #[test]
    fn scatter_then_gather_roundtrip_with_unit_weights() {
        let src = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let ids = vec![2usize, 0, 1];
        let gathered = gathered(&src, &ids);
        let mut restored = Tensor::zeros(3, 2);
        scatter_rows_scaled(&gathered, &ids, &[1.0; 3], &mut restored);
        assert!(restored.allclose(&src, 0.0));
    }

    #[test]
    fn sequential_gemm_matches_per_expert_matmul() {
        let w0 = Tensor::rand_uniform(3, 4, 1.0, 10);
        let w1 = Tensor::rand_uniform(3, 4, 1.0, 11);
        let input = Tensor::rand_uniform(5, 3, 1.0, 12);
        let out = sequential_gemm(&input, &[2, 3], &[w0.clone(), w1.clone()]);
        let exp0 = crate::ops::matmul(&input.slice_rows(0, 2), &w0);
        let exp1 = crate::ops::matmul(&input.slice_rows(2, 5), &w1);
        assert!(out.slice_rows(0, 2).allclose(&exp0, 1e-5));
        assert!(out.slice_rows(2, 5).allclose(&exp1, 1e-5));
    }

    #[test]
    fn sequential_gemm_tolerates_empty_experts() {
        let w = Tensor::rand_uniform(3, 2, 1.0, 13);
        let input = Tensor::rand_uniform(2, 3, 1.0, 14);
        let out = sequential_gemm(&input, &[0, 2, 0], &[w.clone(), w.clone(), w.clone()]);
        assert_eq!(out.shape(), (2, 2));
    }

    #[test]
    #[should_panic(expected = "segment sum")]
    fn sequential_gemm_validates_segment_total() {
        let w = Tensor::zeros(3, 2);
        let input = Tensor::zeros(4, 3);
        let _ = sequential_gemm(&input, &[1, 2], &[w.clone(), w]);
    }

    #[test]
    fn argsort_desc_stable_on_ties() {
        let keys = [0.5f32, 0.9, 0.5, 0.1];
        assert_eq!(argsort_desc_by(&keys), vec![1, 0, 2, 3]);
    }

    #[test]
    fn argsort_ranks_nan_last_instead_of_panicking() {
        let keys = [
            0.5f32,
            f32::NAN,
            0.9,
            f32::NEG_INFINITY,
            f32::NAN,
            -0.0,
            0.0,
        ];
        assert_eq!(argsort_desc_by(&keys), vec![2, 0, 5, 6, 3, 1, 4]);
        assert_eq!(argsort_desc_by(&[f32::NAN; 3]), vec![0, 1, 2]);
    }

    #[test]
    fn select_top_desc_puts_the_argsort_prefix_first() {
        let mut keys: Vec<f32> = (0..97).map(|i| ((i * 31) % 17) as f32 * 0.25).collect();
        keys[40] = f32::NAN;
        let ranked = argsort_desc_by(&keys);
        for keep in [0usize, 1, 16, 96, 97, 200] {
            let mut idx: Vec<usize> = (0..keys.len()).collect();
            select_top_desc(&keys, &mut idx, keep);
            let keep = keep.min(keys.len());
            let mut head = idx[..keep].to_vec();
            head.sort_unstable_by(rank_desc(&keys));
            assert_eq!(head, ranked[..keep], "keep {keep}");
        }
    }

    #[test]
    fn combine_backward_rows_matches_gather_then_serial_dot_bitwise() {
        // The two-pass schedule this kernel replaced: gather `d_out` rows,
        // then per row one ascending scalar dot and an in-place scale. Row
        // counts on both sides of the pool cutoff and off the 4-row grid.
        for (rows, cols, tokens) in [
            (0usize, 8usize, 3usize),
            (7, 5, 3),
            (64, 33, 10),
            (1027, 64, 200),
        ] {
            let d_out = Tensor::rand_uniform(tokens, cols, 1.0, 41);
            let y = Tensor::rand_uniform(rows, cols, 1.0, 42);
            let ids: Vec<usize> = (0..rows).map(|i| (i * 7 + 3) % tokens).collect();
            let w = Tensor::rand_uniform(1, rows, 1.0, 43).into_vec();
            let mut want_dy = gathered(&d_out, &ids);
            let want_dw: Vec<f32> = (0..rows)
                .map(|i| {
                    let mut dot = 0.0f32;
                    for (dv, yv) in want_dy.row_mut(i).iter_mut().zip(y.row(i)) {
                        dot += *dv * yv;
                        *dv *= w[i];
                    }
                    dot
                })
                .collect();
            // The kernel overwrites `y` with `d_y`.
            let (mut d_y, mut d_w) = (y.clone(), vec![9.0f32; 5]);
            combine_backward_rows(&d_out, &ids, &mut d_y, &w, &mut d_w);
            let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(d_y.shape(), (rows, cols));
            assert_eq!(
                bits(d_y.as_slice()),
                bits(want_dy.as_slice()),
                "d_y {rows}x{cols}"
            );
            assert_eq!(bits(&d_w), bits(&want_dw), "d_w {rows}x{cols}");
        }
    }

    #[test]
    fn argsort_into_matches_owned_variant() {
        let keys: Vec<f32> = (0..97).map(|i| ((i * 31) % 17) as f32 * 0.25).collect();
        let mut idx = Vec::new();
        argsort_desc_into(&keys, &mut idx);
        assert_eq!(idx, argsort_desc_by(&keys));
        // Reuse with stale contents: must clear first.
        argsort_desc_into(&keys[..5], &mut idx);
        assert_eq!(idx, argsort_desc_by(&keys[..5]));
    }

    #[test]
    fn scatter_unit_matches_scaled_with_ones() {
        let src = Tensor::rand_uniform(6, 3, 1.0, 21);
        let ids = vec![2usize, 0, 1, 2, 0, 1];
        let mut a = Tensor::rand_uniform(3, 3, 1.0, 22);
        let mut b = a.clone();
        scatter_rows_scaled(&src, &ids, &[1.0; 6], &mut a);
        scatter_rows_unit(&src, &ids, &mut b);
        assert!(a.allclose(&b, 0.0));
    }

    #[test]
    fn gather_into_reuses_buffer_across_shapes() {
        let src = Tensor::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let mut out = Tensor::zeros(0, 0);
        gather_rows_into(&src, &[3, 0], &mut out);
        assert_eq!(out.row(0), &[6.0, 7.0]);
        assert_eq!(out.row(1), &[0.0, 1.0]);
        // Shrink then grow again without losing correctness.
        gather_rows_into(&src, &[1], &mut out);
        assert_eq!(out.shape(), (1, 2));
        assert_eq!(out.row(0), &[2.0, 3.0]);
        gather_rows_into(&src, &[0, 1, 2], &mut out);
        assert_eq!(out.shape(), (3, 2));
        assert_eq!(out.row(2), &[4.0, 5.0]);
    }

    #[test]
    fn histogram_counts() {
        assert_eq!(histogram(&[0, 2, 2, 1], 3), vec![1, 1, 2]);
        assert_eq!(histogram(&[], 2), vec![0, 0]);
    }
}
