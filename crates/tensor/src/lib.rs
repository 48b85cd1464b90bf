//! CPU tensor substrate for the X-MoE reproduction.
//!
//! The paper's kernels run on AMD/NVIDIA GPUs via Triton; this crate supplies
//! the CPU analogues used by every other crate in the workspace:
//!
//! * [`Tensor`] — a row-major 2-D `f32` matrix with shape checking.
//! * [`matmul`] / [`matmul_into`] — register-tiled, multi-threaded GEMM on the
//!   widest ISA tier the CPU has ([`gemm_tier`]).
//! * Row-wise ops used by MoE gating: [`softmax_rows`], [`topk_rows`].
//! * Routing kernels mirroring the paper's Triton gather/scatter (§4.1.2):
//!   [`gather_rows`], [`scatter_rows_scaled`].
//! * The sequential GEMM over uneven expert segments (§B.4):
//!   [`sequential_gemm`].
//! * Array utilities mirroring Listing 1: [`argsort_desc_by`], [`cumsum`],
//!   [`histogram`].
//!
//! Steady-state allocation freedom is provided by [`pool::Workspace`], a
//! per-rank arena that leases grow-only scratch tensors and index buffers to
//! the pipeline stages, and verified by [`alloc::CountingAlloc`], an optional
//! counting `#[global_allocator]` wrapper used by benches and tests.
//!
//! All parallelism runs on the persistent worker pool in [`par`]: kernels
//! submit batches of tasks over disjoint row chunks (or whole expert
//! segments, via the grouped GEMM entry points), so they are data-race free
//! by construction and bitwise identical to their serial schedules. The
//! `unsafe` in the crate is confined to the `GlobalAlloc` impl in [`alloc`]
//! (which delegates every operation to `std::alloc::System` and adds relaxed
//! atomic counters), the task/pointer plumbing in [`par`], and the four
//! `#[target_feature]` call sites in [`ops`] that enter the AVX2 / AVX-512
//! instantiations of the (safe-Rust) GEMM microkernels behind CPU detection.

pub mod alloc;
pub mod ops;
pub mod par;
pub mod pool;
pub mod rng;
pub mod routing;

pub use alloc::{
    mark_thread_untracked, thread_tracked_allocs, untracked, AllocStats, CountingAlloc,
};
pub use ops::{
    add_assign, add_assign_slice, axpy_slice, gelu_val_grad, gemm_tier, gemm_view, matmul,
    matmul_into, matmul_slices, matmul_transpose_a_add, matmul_transpose_b,
    matmul_transpose_b_into, matmul_transpose_b_slices, relu, scale_assign, scaled_extend, silu,
    silu_grad_slice, silu_into, silu_slice, softmax_rows, topk_rows, topk_rows_into, Causal, View,
    ViewMut,
};
#[doc(hidden)]
pub use ops::{nt_pack_probe, NT_PACK_MIN_ROWS};
pub use par::{
    gemm_grouped, gemm_grouped_transpose_a, gemm_grouped_transpose_a_blocks,
    gemm_grouped_transpose_b, pool_size, run_tasks, Task,
};
pub use pool::{Workspace, WorkspaceStats};
pub use rng::DetRng;
pub use routing::{
    argsort_desc_by, argsort_desc_into, combine_backward_rows, cumsum, gather_rows,
    gather_rows_into, histogram, scatter_rows_scaled, scatter_rows_unit, select_top_desc,
    sequential_gemm,
};

/// Number of worker threads used by parallel kernels (the size of the
/// persistent pool in [`par`], caller lane included).
///
/// Chosen once at first use: the `XMOE_THREADS` environment variable if it
/// parses to an integer in `1..=64` (values above 64 are capped; `0` or
/// garbage fall back to the default, so a broken override can never disable
/// the kernels), otherwise `std::thread::available_parallelism` capped at 16
/// so test suites with many concurrent simulated ranks do not oversubscribe
/// the machine. Read once through a `OnceLock`: the thread count is pinned
/// for the life of the process, which is what makes cross-thread-count
/// determinism testable by re-running the same binary under different
/// `XMOE_THREADS` values.
pub fn worker_threads() -> usize {
    use std::sync::OnceLock;
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        let default = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        match std::env::var("XMOE_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n.min(64),
                _ => default,
            },
            Err(_) => default,
        }
    })
}

/// A row-major 2-D `f32` matrix.
///
/// ```
/// use xmoe_tensor::{matmul, Tensor};
/// let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let id = Tensor::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
/// assert!(matmul(&a, &id).allclose(&a, 1e-6));
/// ```
///
/// This is deliberately minimal: MoE training manipulates token buffers
/// (`[tokens, hidden]`), weight matrices and small routing tables, all of
/// which are 2-D. Higher-rank tensors in the paper (for example the dense
/// `[S, E, C]` dispatch mask of the baseline) are represented explicitly as
/// index structures instead, which is exactly the point of the PFT design.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Tensor {
    /// An empty `0 x 0` tensor — the natural seed for grow-only scratch.
    fn default() -> Self {
        Tensor::zeros(0, 0)
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Create a zero-filled `rows x cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build a tensor from an existing buffer. Panics if the buffer length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Uniform random tensor in `[-scale, scale]` from a deterministic seed.
    pub fn rand_uniform(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push((rng.next_f32() * 2.0 - 1.0) * scale);
        }
        Self { rows, cols, data }
    }

    /// Kaiming-style init: uniform with scale `sqrt(1/fan_in)`.
    pub fn rand_init(rows: usize, cols: usize, fan_in: usize, seed: u64) -> Self {
        let scale = (1.0 / fan_in.max(1) as f32).sqrt();
        Self::rand_uniform(rows, cols, scale, seed)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the full backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the full backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshape in place to `rows x cols`, zero-filling the contents.
    ///
    /// The backing buffer's capacity only grows, never shrinks, so a tensor
    /// reused across steps reaches a high-water size after warm-up and then
    /// resizes allocation-free. This is the workhorse of [`pool::Workspace`].
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// [`Tensor::resize`] for a caller whose next operation writes every
    /// element: reshape in place (grow-only capacity) **without** the
    /// zero-fill, so the contents are unspecified — whatever the buffer held
    /// before, zeros where it grew. Under `debug_assertions` the whole buffer
    /// is NaN-poisoned instead, so a read-before-write fails the bitwise
    /// suites rather than silently reading last step's data.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
        if cfg!(debug_assertions) {
            self.data.fill(f32::NAN);
        }
    }

    /// Borrow row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// A new tensor containing rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.rows);
        Tensor::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Vertically stack tensors with equal column counts.
    pub fn vstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack of zero tensors");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|t| t.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Tensor { rows, cols, data }
    }

    /// Transpose into a new tensor.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-owned tensor, resized to `cols x rows`.
    pub fn transpose_into(&self, out: &mut Tensor) {
        // For-overwrite: the blocked loops below write every element.
        out.resize_for_overwrite(self.cols, self.rows);
        // Blocked transpose for cache friendliness.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
    }

    /// Transpose rows `[start, end)` into a caller-owned tensor, resized to
    /// `cols x (end-start)`. Equivalent to `self.slice_rows(start, end)
    /// .transpose()` without materialising the slice.
    pub fn transpose_rows_into(&self, start: usize, end: usize, out: &mut Tensor) {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        let seg = end - start;
        // For-overwrite: the blocked loops below write every element.
        out.resize_for_overwrite(self.cols, seg);
        const B: usize = 32;
        for rb in (0..seg).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(seg) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * seg + r] = self.data[(start + r) * self.cols + c];
                    }
                }
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// True when every element differs from `other` by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn row_accessors() {
        let t = Tensor::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.row(1), &[10.0, 11.0]);
        assert_eq!(t.get(2, 1), 21.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::rand_uniform(37, 53, 1.0, 7);
        let tt = t.transpose().transpose();
        assert!(t.allclose(&tt, 0.0));
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let b = Tensor::from_fn(1, 3, |_, c| (6 + c) as f32);
        let s = Tensor::vstack(&[&a, &b]);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(2), &[6.0, 7.0, 8.0]);
    }

    #[test]
    fn slice_rows_extracts_contiguous_block() {
        let t = Tensor::from_fn(5, 2, |r, c| (r * 2 + c) as f32);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[2.0, 3.0]);
        assert_eq!(s.row(1), &[4.0, 5.0]);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let a = Tensor::rand_uniform(4, 4, 1.0, 42);
        let b = Tensor::rand_uniform(4, 4, 1.0, 42);
        let c = Tensor::rand_uniform(4, 4, 1.0, 43);
        assert!(a.allclose(&b, 0.0));
        assert!(!a.allclose(&c, 0.0));
    }

    #[test]
    fn resize_zeroes_and_keeps_capacity() {
        let mut t = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32 + 1.0);
        let cap_before = {
            t.resize(2, 3);
            t.data.capacity()
        };
        assert_eq!(t.shape(), (2, 3));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        t.resize(4, 4);
        assert_eq!(t.data.capacity(), cap_before, "grow-only capacity");
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn resize_for_overwrite_keeps_capacity_and_poisons_debug_builds() {
        let mut t = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32 + 1.0);
        t.resize_for_overwrite(2, 3);
        let cap = t.data.capacity();
        assert_eq!((t.shape(), t.len()), ((2, 3), 6));
        t.resize_for_overwrite(4, 4);
        assert_eq!((t.shape(), t.len()), ((4, 4), 16));
        assert_eq!(t.data.capacity(), cap, "grow-only capacity");
        if cfg!(debug_assertions) {
            assert!(t.as_slice().iter().all(|v| v.is_nan()), "poisoned");
        }
    }

    #[test]
    fn transpose_into_matches_owned() {
        let t = Tensor::rand_uniform(37, 53, 1.0, 7);
        let mut out = Tensor::zeros(0, 0);
        t.transpose_into(&mut out);
        assert!(out.allclose(&t.transpose(), 0.0));
    }

    #[test]
    fn transpose_rows_into_matches_slice_then_transpose() {
        let t = Tensor::rand_uniform(40, 9, 1.0, 8);
        let mut out = Tensor::zeros(0, 0);
        t.transpose_rows_into(7, 29, &mut out);
        assert!(out.allclose(&t.slice_rows(7, 29).transpose(), 0.0));
        // Empty segment is legal and yields a cols x 0 tensor.
        t.transpose_rows_into(5, 5, &mut out);
        assert_eq!(out.shape(), (9, 0));
    }

    #[test]
    fn vstack_passes_zero_row_parts_through() {
        let a = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let empty = Tensor::zeros(0, 3);
        let s = Tensor::vstack(&[&empty, &a, &empty]);
        assert_eq!(s.shape(), (2, 3));
        assert!(s.allclose(&a, 0.0));
        let all_empty = Tensor::vstack(&[&empty, &empty]);
        assert_eq!(all_empty.shape(), (0, 3));
    }

    #[test]
    fn max_abs_diff_and_allclose() {
        let a = Tensor::full(2, 2, 1.0);
        let mut b = a.clone();
        b.set(1, 1, 1.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(a.allclose(&b, 0.5));
        assert!(!a.allclose(&b, 0.49));
    }
}
