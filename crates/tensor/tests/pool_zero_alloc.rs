//! The worker pool's allocation gate at this crate's own level: after
//! warm-up, every pooled entry point — the three grouped GEMMs, row-chunked
//! dense NN and NT GEMMs (both NTs pack `Bᵀ` into the per-thread scratch:
//! segments of 33+ rows are above `NT_PACK_MIN_ROWS`), the chunked SiLU
//! passes and the fused combine backward — runs *above* its parallel cutoff
//! (`128^3` MACs, 16 Ki elements) without touching the heap. Its own test
//! binary with exactly one `#[test]`, so the counting `#[global_allocator]`
//! sees no sibling test's traffic inside the counted window.

use xmoe_tensor::{
    combine_backward_rows, gemm_grouped, gemm_grouped_transpose_a, gemm_grouped_transpose_b,
    matmul_slices, matmul_transpose_b_slices, silu_grad_slice, silu_into, silu_slice,
    CountingAlloc, Tensor,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

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
    let mut act = vec![0.0f32; total * n];
    // Combine backward over the same 408 x 72 rows, gathered from 64 tokens;
    // it overwrites its expert outputs, so each step refills them by copy.
    let ids: Vec<usize> = (0..total).map(|i| (i * 5) % 64).collect();
    let weights = vec![0.5f32; total];
    let (mut y, mut d_w) = (d.clone(), Vec::new());
    let mut step = || {
        gemm_grouped(a.as_slice(), &counts, k, |i| w[i].as_slice(), n, &mut c);
        gemm_grouped_transpose_b(a.as_slice(), &counts, k, |i| wt[i].as_slice(), n, &mut c);
        gemm_grouped_transpose_a(a.as_slice(), &counts, k, d.as_slice(), n, &mut g);
        matmul_slices(a.as_slice(), total, k, w[0].as_slice(), n, &mut c);
        matmul_transpose_b_slices(a.as_slice(), total, k, wt[0].as_slice(), n, &mut c);
        y.as_mut_slice().copy_from_slice(d.as_slice());
        combine_backward_rows(&d, &ids, &mut y, &weights, &mut d_w);
        silu_into(d.as_slice(), &mut act);
        silu_slice(&mut act);
        silu_grad_slice(&mut act, d.as_slice());
    };
    // Warm-up starts the pool (thread spawn allocates, once) and grows the
    // panel arena and this thread's pack scratch.
    for _ in 0..3 {
        step();
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
