//! The worker pool's allocation gate at this crate's own level: after
//! warm-up, every pooled entry point — the three grouped GEMMs (the NN also
//! from gathered rows and into a combine; the NT from scaled gathered rows,
//! into a unit-weight combine and into the combine backward's dot-scale;
//! the TN from a scaled gathered `D` — all of which pack per thread), the
//! dense NN, NT and TN (one-segment grouped calls; every NT packs `Bᵀ` into
//! the per-thread scratch: segments of 33+ rows are above
//! `NT_PACK_MIN_ROWS`) and the chunked SiLU passes — runs *above* its
//! parallel cutoff (`128^3` MACs, 16 Ki elements) without touching the
//! heap. Its own test binary with exactly one `#[test]`, so the counting
//! `#[global_allocator]` sees no sibling test's traffic inside the counted
//! window.
//!
//! Which lane claims which task varies from call to call, so a worker that
//! grew its pack buffers only for the segments it happened to claim could
//! grow them again at any later step (with many lanes on few cores, a
//! worker can go many steps without claiming a kind of task). The pool
//! grows every lane's buffers to the longest any call has reserved instead,
//! once per new record. The warm-up then runs until three steps in a row
//! leave the heap as it was, and fails if that takes more than
//! [`MAX_WARM_UP`] steps — a step that grows the heap every time never
//! settles.

use xmoe_tensor::{
    gemm_grouped, gemm_grouped_transpose_a, gemm_grouped_transpose_a_blocks,
    gemm_grouped_transpose_b, matmul_slices, matmul_transpose_a_add, matmul_transpose_b_slices,
    silu_grad_slice, silu_into, silu_slice, CountingAlloc, RowSink, RowSource, Tensor,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Warm-up steps after which a heap that still grows is a finding.
const MAX_WARM_UP: usize = 64;

#[test]
fn pooled_kernels_allocate_nothing_after_warm_up() {
    // 12 ragged segments, 408 rows x 100 x 72 = 2.9 M MACs per grouped call.
    let (e, k, n) = (12usize, 100usize, 72usize);
    let counts: Vec<usize> = (0..e).map(|i| 33 + (i % 3)).collect();
    let total: usize = counts.iter().sum();
    let a = Tensor::rand_uniform(total, k, 1.0, 1);
    let d = Tensor::rand_uniform(total, n, 1.0, 2);
    let w: Vec<Tensor> = (0..e)
        .map(|i| Tensor::rand_uniform(k, n, 1.0, 10 + i as u64))
        .collect();
    let wt: Vec<Tensor> = w.iter().map(Tensor::transpose).collect();
    let mut c = vec![0.0f32; total * n];
    let mut g = vec![0.0f32; e * k * n];
    let mut g_dense = Tensor::zeros(k, n);
    let mut act = vec![0.0f32; total * n];
    // The combine backward's dot-scale over the same 408 x 72 rows: it
    // overwrites the weights with their gradients, so each step refills them
    // by copy.
    let ids: Vec<usize> = (0..total).map(|i| (i * 5) % 64).collect();
    let weights = vec![0.5f32; total];
    let (mut h_act, mut w_dw) = (vec![0.0f32; total * n], weights.clone());
    // The NN's gathered and combining forms over the same ids, sorted within
    // each segment as a PFT's are.
    let tokens = Tensor::rand_uniform(64, k, 1.0, 3);
    let mut routed = ids.clone();
    let mut row = 0;
    for &cnt in &counts {
        routed[row..row + cnt].sort_unstable();
        row += cnt;
    }
    let mut out = Tensor::zeros(64, n);
    let mut step = || {
        gemm_grouped(a.as_slice(), &counts, k, |i| w[i].as_slice(), n, &mut c);
        let gathered = RowSource::Gathered {
            src: tokens.as_slice(),
            ids: &routed,
            scale: None,
        };
        gemm_grouped(gathered, &counts, k, |i| w[i].as_slice(), n, &mut c);
        let combine = RowSink::Combine {
            out: out.as_mut_slice(),
            ids: &routed,
            weights: Some(&weights),
        };
        gemm_grouped(a.as_slice(), &counts, k, |i| w[i].as_slice(), n, combine);
        gemm_grouped_transpose_b(a.as_slice(), &counts, k, |i| wt[i].as_slice(), n, &mut c);
        // The combine backward inside the `d_h` NT, from `d_out` read by id.
        w_dw.copy_from_slice(&weights);
        let d_out = RowSource::Gathered {
            src: tokens.as_slice(),
            ids: &routed,
            scale: None,
        };
        let dot_scale = RowSink::DotScale {
            act: &mut h_act,
            w: &mut w_dw,
        };
        gemm_grouped_transpose_b(d_out, &counts, k, |i| wt[i].as_slice(), n, dot_scale);
        // The local backward's forms: `d_y` read by id and scaled, as the
        // NT's `A` and the TN's `D`, and the NT adding into its tokens.
        let scaled = RowSource::Gathered {
            src: tokens.as_slice(),
            ids: &routed,
            scale: Some(&weights),
        };
        gemm_grouped_transpose_b(scaled, &counts, k, |i| wt[i].as_slice(), n, &mut c);
        let unit = RowSink::Combine {
            out: out.as_mut_slice(),
            ids: &routed,
            weights: None,
        };
        gemm_grouped_transpose_b(a.as_slice(), &counts, k, |i| wt[i].as_slice(), n, unit);
        gemm_grouped_transpose_a(a.as_slice(), &counts, k, d.as_slice(), n, &mut g);
        let blocks = g.chunks_exact_mut(k * n);
        let scaled_d = RowSource::Gathered {
            src: out.as_slice(),
            ids: &routed,
            scale: Some(&weights),
        };
        gemm_grouped_transpose_a_blocks(
            RowSource::Contiguous(a.as_slice()),
            &counts,
            k,
            scaled_d,
            n,
            blocks,
        );
        matmul_slices(a.as_slice(), total, k, w[0].as_slice(), n, &mut c);
        matmul_transpose_b_slices(a.as_slice(), total, k, wt[0].as_slice(), n, &mut c);
        matmul_transpose_a_add(&a, &d, &mut g_dense);
        silu_into(d.as_slice(), &mut act);
        silu_slice(&mut act);
        silu_grad_slice(&mut act, d.as_slice());
    };
    // Warm-up starts the pool (thread spawn allocates, once) and grows the
    // panel arena and every lane's pack scratch; see the module docs.
    let mut settled = 0;
    for warm in 0.. {
        assert!(
            warm < MAX_WARM_UP,
            "the heap still grows after {MAX_WARM_UP} warm-up steps"
        );
        let before = ALLOC.stats();
        step();
        let after = ALLOC.stats();
        let still = after.allocs == before.allocs && after.live_bytes == before.live_bytes;
        settled = if still { settled + 1 } else { 0 };
        if settled == 3 {
            break;
        }
    }
    let before = ALLOC.stats();
    for _ in 0..8 {
        step();
    }
    let after = ALLOC.stats();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "a pooled kernel hit the heap at steady state"
    );
    assert_eq!(after.live_bytes, before.live_bytes, "live bytes drifted");
}
