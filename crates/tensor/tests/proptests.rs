//! Randomized-but-deterministic property tests for the tensor substrate.
//! Each test sweeps a fixed number of `DetRng`-derived cases, so failures
//! reproduce exactly without an external property-testing framework.

use xmoe_tensor::{
    argsort_desc_by, histogram, matmul, matmul_transpose_b, softmax_rows, topk_rows_into, DetRng,
    Tensor,
};

const CASES: u64 = 48;

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (_, n) = b.shape();
    let mut c = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += a.get(i, kk) as f64 * b.get(kk, j) as f64;
            }
            c.set(i, j, acc as f32);
        }
    }
    c
}

#[test]
fn matmul_matches_naive() {
    let mut rng = DetRng::new(0x11);
    for case in 0..CASES {
        let (m, k, n) = (
            1 + rng.next_below(39),
            1 + rng.next_below(39),
            1 + rng.next_below(39),
        );
        let a = Tensor::rand_uniform(m, k, 1.0, 1000 + case);
        let b = Tensor::rand_uniform(k, n, 1.0, 1001 + case);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        assert!(
            fast.allclose(&slow, 1e-3 * k as f32),
            "case {case} ({m}x{k}x{n}): max diff {}",
            fast.max_abs_diff(&slow)
        );
    }
}

#[test]
fn matmul_transpose_identity() {
    // (A B)^T == B^T A^T
    let mut rng = DetRng::new(0x12);
    for case in 0..CASES {
        let (m, k, n) = (
            1 + rng.next_below(19),
            1 + rng.next_below(19),
            1 + rng.next_below(19),
        );
        let a = Tensor::rand_uniform(m, k, 1.0, 2000 + case);
        let b = Tensor::rand_uniform(k, n, 1.0, 2007 + case);
        let left = matmul(&a, &b).transpose();
        let right = matmul(&b.transpose(), &a.transpose());
        assert!(left.allclose(&right, 1e-3), "case {case}");
    }
}

#[test]
fn matmul_transpose_b_consistent() {
    let mut rng = DetRng::new(0x13);
    for case in 0..CASES {
        let (m, k, n) = (
            1 + rng.next_below(19),
            1 + rng.next_below(19),
            1 + rng.next_below(19),
        );
        let a = Tensor::rand_uniform(m, k, 1.0, 3000 + case);
        let b = Tensor::rand_uniform(n, k, 1.0, 3013 + case);
        let fast = matmul_transpose_b(&a, &b);
        let explicit = matmul(&a, &b.transpose());
        assert!(fast.allclose(&explicit, 1e-3), "case {case}");
    }
}

#[test]
fn transpose_is_involutive() {
    let mut rng = DetRng::new(0x14);
    for case in 0..CASES {
        let (m, n) = (1 + rng.next_below(49), 1 + rng.next_below(49));
        let t = Tensor::rand_uniform(m, n, 1.0, 4000 + case);
        assert!(t.transpose().transpose().allclose(&t, 0.0), "case {case}");
    }
}

#[test]
fn softmax_rows_sum_to_one() {
    let mut rng = DetRng::new(0x15);
    for case in 0..CASES {
        let (m, n) = (1 + rng.next_below(19), 1 + rng.next_below(19));
        let mut t = Tensor::rand_uniform(m, n, 5.0, 5000 + case);
        softmax_rows(&mut t);
        for r in 0..m {
            let s: f32 = t.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "case {case} row {r} sums to {s}");
            assert!(t.row(r).iter().all(|&v| v >= 0.0));
        }
    }
}

#[test]
fn softmax_is_shift_invariant() {
    let mut rng = DetRng::new(0x16);
    for case in 0..CASES {
        let n = 2 + rng.next_below(14);
        let shift = (rng.next_f32() - 0.5) * 100.0;
        let base = Tensor::rand_uniform(1, n, 3.0, 6000 + case);
        let mut a = base.clone();
        softmax_rows(&mut a);
        let mut b = base.clone();
        for v in b.as_mut_slice() {
            *v += shift;
        }
        softmax_rows(&mut b);
        assert!(a.allclose(&b, 1e-4), "case {case} shift {shift}");
    }
}

#[test]
fn topk_first_is_row_max() {
    let mut rng = DetRng::new(0x17);
    for case in 0..CASES {
        let n = 1 + rng.next_below(23);
        let k = (1 + rng.next_below(8)).min(n);
        let t = Tensor::rand_uniform(3, n, 1.0, 7000 + case);
        let (mut idx, mut vals) = (Vec::new(), Vec::new());
        topk_rows_into(&t, k, &mut idx, &mut vals, &mut Vec::new());
        assert_eq!(idx.len(), 3 * k);
        assert_eq!(vals.len(), 3 * k);
        for r in 0..3 {
            let (row_idx, row_vals) = (&idx[r * k..(r + 1) * k], &vals[r * k..(r + 1) * k]);
            let max = t.row(r).iter().cloned().fold(f32::MIN, f32::max);
            assert_eq!(row_vals[0], max, "case {case} row {r}");
            // Indices are distinct and values descending.
            let mut seen = std::collections::HashSet::new();
            for (j, &i) in row_idx.iter().enumerate() {
                assert!(seen.insert(i));
                if j > 0 {
                    assert!(row_vals[j - 1] >= row_vals[j]);
                }
            }
        }
    }
}

#[test]
fn argsort_desc_is_sorted_permutation() {
    let mut rng = DetRng::new(0x18);
    for case in 0..CASES {
        let len = rng.next_below(50);
        let xs: Vec<f32> = (0..len).map(|_| (rng.next_f32() - 0.5) * 200.0).collect();
        let order = argsort_desc_by(&xs);
        // Permutation of 0..len.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..xs.len()).collect::<Vec<_>>(), "case {case}");
        // Descending values.
        for w in order.windows(2) {
            assert!(xs[w[0]] >= xs[w[1]]);
        }
    }
}

#[test]
fn histogram_conserves_counts() {
    let mut rng = DetRng::new(0x1A);
    for case in 0..CASES {
        let len = rng.next_below(100);
        let values: Vec<usize> = (0..len).map(|_| rng.next_below(16)).collect();
        let h = histogram(&values, 16);
        assert_eq!(h.iter().sum::<usize>(), values.len(), "case {case}");
        for (bin, &count) in h.iter().enumerate() {
            assert_eq!(count, values.iter().filter(|&&v| v == bin).count());
        }
    }
}
